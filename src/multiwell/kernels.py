"""Hot numeric kernels: grid stencils, link quadrature, multilinear
interpolation, and per potential kind one fused value-and-gradient kernel
(with a value-only branch) and, for the closed-form kinds, one Hessian
kernel; one numpy implementation each.

The grid kernels take node-sampled fields of shape ``grid.shape + (m,)`` and
work in any grid dimension by slicing one axis at a time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# There is one kernel lane (numpy); benchmark reports record this flag.
USE_NUMBA = False


# ---------------------------------------------------------------------------
# Laplacian stencil (3/5/7-point), interior nodes only; boundary rows are zero.


def laplacian(values: np.ndarray, h: float) -> np.ndarray:
    """Standard second-order Laplacian stencil; zeros on the boundary layer."""
    dim = values.ndim - 1
    views = [
        values[tuple(s if b == a else slice(1, -1) for b in range(dim))]
        for a in range(dim)
        for s in (slice(2, None), slice(None, -2))
    ]
    acc = views[0] + views[1]
    for v in views[2:]:
        acc += v
    inner = (slice(1, -1),) * dim
    acc -= (2.0 * dim) * values[inner]
    acc /= h * h
    out = np.zeros_like(values)
    out[inner] = acc
    return out


# ---------------------------------------------------------------------------
# Potential evaluations on flat point arrays (N, m).


def _well_factors(pts, wells):
    """Per well, the difference columns u_j - a_j and the factor |u - a|^2."""
    diffs = [[u - aj for u, aj in zip(pts.T, a)] for a in wells]
    f = []
    for dw in diffs:
        fi = dw[0] * dw[0]
        for d in dw[1:]:
            fi += d * d
        f.append(fi)
    return diffs, f


def prodwell_value_grad(pts, wells, scale, grad=True):
    """W = scale * prod_i f_i with f_i = |u - a_i|^2, and its gradient
    W_u = 2 scale * sum_i (u - a_i) prod_{j != i} f_j (None when ``grad`` is
    false).

    Each well's differences and factor are formed once, as contiguous (N,)
    columns.  The excluded-factor products come from prefix and suffix
    products, without division, so the gradient is exactly 0 at a well."""
    diffs, f = _well_factors(pts, wells)
    if not grad:
        value = f[0]
        for fi in f[1:]:
            value = value * fi
        return scale * value, None
    after = [np.ones(pts.shape[0])]  # after[i] = prod_{j > i} f_j
    for fi in f[:0:-1]:
        after.insert(0, after[0] * fi)
    grad = [np.zeros(pts.shape[0]) for _ in range(pts.shape[1])]
    before = np.ones(pts.shape[0])  # prod_{j < i} f_j; the value at the end
    for dw, fi, rest_after in zip(diffs, f, after):
        rest = before * rest_after
        for g, d in zip(grad, dw):
            g += d * rest
        before = before * fi
    return scale * before, (2.0 * scale) * np.stack(grad, axis=1)


def prodwell_hess(pts, wells, scale):
    """W_uu (N, m, m) of the product well:
    2 scale [(sum_i P_i) I + 2 sum_{i < j} P_ij (d_i d_j^T + d_j d_i^T)],
    with d_i = u - a_i, P_i = prod_{k != i} f_k and P_ij = prod_{k != i, j} f_k,
    assembled entry by entry from (N,) columns."""
    n, m = pts.shape
    diffs, f = _well_factors(pts, wells)

    def excluded(*skip):
        out = np.ones(n)
        for k, fk in enumerate(f):
            if k not in skip:
                out = out * fk
        return out

    H = np.zeros((n, m, m))
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            w = 2.0 * excluded(i, j)
            di, dj = diffs[i], diffs[j]
            for a in range(m):
                for b in range(a, m):
                    H[:, a, b] += w * (di[a] * dj[b] + dj[a] * di[b])
    trace = sum(excluded(i) for i in range(len(f)))
    for a in range(m):
        H[:, a, a] += trace
        for b in range(a + 1, m):
            H[:, b, a] = H[:, a, b]
    H *= 2.0 * scale
    return H


def tetra_value_grad(pts, grad=True):
    """The tetrahedral quartic and its gradient (None when ``grad`` is
    false), sharing r^2 = |u|^2."""
    u1, u2, u3 = pts[:, 0], pts[:, 1], pts[:, 2]
    s1, s2 = u1 * u1, u2 * u2
    r2 = s1 + s2 + u3 * u3
    c = 4.0 / np.sqrt(3.0)
    value = r2 * r2 - c * (s1 - s2) * u3 - (2.0 / 3.0) * r2 + 5.0 / 9.0
    if not grad:
        return value, None
    g = np.empty_like(pts)
    g[:, 0] = 4.0 * r2 * u1 - 2.0 * c * u1 * u3 - (4.0 / 3.0) * u1
    g[:, 1] = 4.0 * r2 * u2 + 2.0 * c * u2 * u3 - (4.0 / 3.0) * u2
    g[:, 2] = 4.0 * r2 * u3 - c * (s1 - s2) - (4.0 / 3.0) * u3
    return value, g


def tetra_hess(pts):
    """W_uu (N, 3, 3) of the tetrahedral quartic:
    (4 |u|^2 - 4/3) I + 8 u u^T plus the terms of the cubic -c (u1^2 - u2^2) u3."""
    u1, u2, u3 = pts[:, 0], pts[:, 1], pts[:, 2]
    c2 = 8.0 / np.sqrt(3.0)  # 2c
    H = np.multiply(pts[:, :, None], pts[:, None, :])
    H *= 8.0
    diag = 4.0 * np.einsum("nj,nj->n", pts, pts) - 4.0 / 3.0
    H[:, 0, 0] += diag - c2 * u3
    H[:, 1, 1] += diag + c2 * u3
    H[:, 2, 2] += diag
    H[:, 0, 2] -= c2 * u1
    H[:, 2, 0] = H[:, 0, 2]
    H[:, 1, 2] += c2 * u2
    H[:, 2, 1] = H[:, 1, 2]
    return H


def _power_table(pts, exps):
    """pw[:, j, e] = pts[:, j] ** e up to the largest exponent, by repeated products."""
    emax = int(exps.max()) if exps.size else 0
    pw = np.ones(pts.shape + (emax + 1,))
    for e in range(1, emax + 1):
        pw[:, :, e] = pw[:, :, e - 1] * pts
    return pw


def _monomial_sum(pw, coeffs, exps):
    terms = np.ones((pw.shape[0], exps.shape[0]))
    for j in range(pw.shape[1]):
        terms *= pw[:, j, :][:, exps[:, j]]
    return terms @ coeffs


def poly_value(pts, coeffs, exps):
    """sum_k coeffs[k] * prod_j pts[:, j] ** exps[k, j]."""
    return _monomial_sum(_power_table(pts, exps), coeffs, exps)


def poly_value_grad(pts, coeffs, exps, grads):
    """A polynomial and its gradient from one power table; ``grads`` holds
    the (coeffs, exps) monomial list of each partial derivative, or is None
    for the value alone (the gradient is then None)."""
    pw = _power_table(pts, exps)
    if grads is None:
        return _monomial_sum(pw, coeffs, exps), None
    grad = np.empty_like(pts)
    for j, (gcoeffs, gexps) in enumerate(grads):
        grad[:, j] = _monomial_sum(pw, gcoeffs, gexps)
    return _monomial_sum(pw, coeffs, exps), grad


# ---------------------------------------------------------------------------
# Multilinear interpolation on origin-centered uniform grids.  Query points
# are clamped to the box; callers mask out-of-box queries themselves.


def interp(values: np.ndarray, pts: np.ndarray, lo: float, h: float) -> np.ndarray:
    """Clamped multilinear interpolation of a node-sampled field."""
    shape = values.shape[:-1]
    dim = len(shape)
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    flat = values.reshape(-1, values.shape[-1])
    strides = [math.prod(shape[k + 1 :]) for k in range(dim)]  # C-order node strides
    base = 0
    weights = []  # per axis: (weight of the lower node, weight of the upper node)
    for k in range(dim):
        p = shape[k] - 1
        t = np.clip((pts[:, k] - lo) / h, 0.0, p)
        i = np.minimum(t.astype(np.int64), p - 1)
        base = base + i * strides[k]
        f = (t - i)[:, None]
        weights.append((1 - f, f))
    out = np.zeros((pts.shape[0], flat.shape[1]))
    for corner in itertools.product((0, 1), repeat=dim):
        off = sum(c * s for c, s in zip(corner, strides))
        corner_values = np.take(flat, base + off, axis=0)
        corner_values *= math.prod(weights[k][c] for k, c in enumerate(corner))
        out += corner_values
    return out


# ---------------------------------------------------------------------------
# Gradient-part quadrature: forward-difference links weighted h^n with
# trapezoid weights on the transverse axes (so descent is the exact gradient
# flow of the reported energy at interior nodes).


def _trap(P):
    w = np.ones(P)
    w[0] = w[-1] = 0.5
    return w


def link_energy(values: np.ndarray, h: float) -> float:
    dim = values.ndim - 1
    idx = "ijk"[:dim]
    weights = [_trap(P) for P in values.shape[:-1]]
    s = 0.0
    for a in range(dim):
        d = np.diff(values, axis=a)
        d *= d
        others = [b for b in range(dim) if b != a]
        subs = ",".join([idx + "m"] + [idx[b] for b in others]) + "->"
        s += np.einsum(subs, d, *(weights[b] for b in others))
    # the h^n cell measure over the h^2 difference scaling leaves h^(n-2)
    return 0.5 * s * h ** (dim - 2)
