"""Hot numeric kernels: grid stencils, the Dirichlet sine transform, the
trapezoid rule, link quadrature (the gradient energy and, from the same
links, its gradient), multilinear interpolation, and the
potentials: one generic kernel that evaluates several polynomials (a value
and its gradient, or the upper triangle of a Hessian) from one power table;
one numpy implementation each.

Every kernel takes component-major values: the stencils, the sine solve,
the link energy and ``interp`` fields of shape ``(m,) + grid.shape``, each
component one contiguous block, in any grid dimension; ``poly_columns``
(m, N) component columns, written as (k, N) rows.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# There is one kernel lane (numpy); benchmark reports record this flag.
USE_NUMBA = False


# ---------------------------------------------------------------------------
# Laplacian stencil (3/5/7-point), interior nodes only; boundary rows are zero.


def laplacian(values: np.ndarray, h: float) -> np.ndarray:
    """Standard second-order Laplacian stencil of each component of an
    (m, *grid) array; zeros on the boundary layer."""
    dim = values.ndim - 1
    views = [
        values[(slice(None),) + tuple(s if b == a else slice(1, -1) for b in range(dim))]
        for a in range(dim)
        for s in (slice(2, None), slice(None, -2))
    ]
    acc = views[0] + views[1]
    for v in views[2:]:
        acc += v
    inner = (slice(None),) + (slice(1, -1),) * dim
    acc -= (2.0 * dim) * values[inner]
    acc /= h * h
    out = np.zeros_like(values)
    out[inner] = acc
    return out


# ---------------------------------------------------------------------------
# Orthonormal type-I sine transform over interior nodes, which diagonalizes
# the Dirichlet stencil along every axis.

# Axes with more interior nodes than this use the FFT of the odd extension
# instead of the matrix, FFT_LINES lines at a time (at 399^2, blocks of 16 or
# 128 lines took 6% and 16% longer).  One axis in place, numpy on one core,
# fastest of 7 runs, matrix / FFT: 199 nodes x 3 lines 0.013 / 0.017 ms,
# 255 x 3 0.021 / 0.018 ms, 299 x 3 0.029 / 0.020 ms, 499 x 3 0.092 / 0.026 ms;
# 255 x 255 0.52 / 0.47 ms, 399 x 399 1.92 / 1.24 ms, 599 x 599 6.1 / 2.6 ms
# along the last axis, 0.52 / 0.57, 1.93 / 1.46 and 6.0 / 3.2 ms along the first.
SINE_MATRIX_MAX = 256
FFT_LINES = 32


@functools.lru_cache(maxsize=8)
def _sine_matrix(n: int) -> np.ndarray:
    """Q[j, k] = sqrt(2/(n+1)) sin(pi j k / (n+1)) for the n interior nodes j
    and modes k: symmetric, orthonormal and its own inverse."""
    k = np.arange(1, n + 1)
    # reduce j k mod 2(n+1) so the sine's argument stays below 2 pi
    q = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * (np.outer(k, k) % (2 * (n + 1))))
    q.flags.writeable = False  # one cached copy serves every caller
    return q


def _sine_axis(z: np.ndarray, axis: int, spare: np.ndarray) -> np.ndarray:
    """Sine transform of the C-contiguous array z along ``axis``; returns
    the array that holds it: ``spare`` (same shape, not z) after one matrix
    product on a short axis, z itself after the FFT of the odd extension,
    block by block of lines, in place on a long one."""
    n = z.shape[axis]
    pre, post = math.prod(z.shape[:axis]), math.prod(z.shape[axis + 1 :])
    src = z.reshape(pre, n, post)
    if n <= SINE_MATRIX_MAX:
        dst = spare.reshape(pre, n, post)
        if post == 1:
            np.matmul(src[..., 0], _sine_matrix(n), out=dst[..., 0])
        else:
            np.matmul(_sine_matrix(n), src, out=dst)
        return spare
    # a block holds FFT_LINES lines: rows of the last axis, columns elsewhere
    rows, cols = (min(FFT_LINES, pre), 1) if post == 1 else (1, min(FFT_LINES, post))
    ext = np.zeros((rows, 2 * (n + 1), cols))
    # -Im rfft of the odd extension (0, v, 0, -v reversed) is 2 sum_j v_j sin(pi j k / (n+1))
    scale = -np.sqrt(0.5 / (n + 1))
    for i in range(0, pre, rows):
        for j in range(0, post, cols):
            part = src[i : i + rows, :, j : j + cols]
            e = ext[: part.shape[0], :, : part.shape[2]]
            e[:, 1 : n + 1] = part
            np.negative(part[:, ::-1], out=e[:, n + 2 :])
            np.multiply(np.fft.rfft(e, axis=1).imag[:, 1 : n + 1], scale, out=part)
    return z


def sine_solve(values: np.ndarray, eig: np.ndarray) -> np.ndarray:
    """Q (Q v / eig), per component, for an (m, *grid) array: Q is the
    orthonormal type-I sine transform over the interior nodes of every grid
    axis and ``eig`` (the interior shape) the spectrum that Q diagonalizes.
    Only interior nodes of ``values`` are read; the boundary layer of the
    result is zero.

    A component's interior, a slice of its contiguous block, is copied out
    once, transformed in place axis by axis, divided, transformed back and
    copied into the result, one component at a time so that it stays in
    cache; an array with a long axis transforms its components together, so
    that each rfft call covers the lines of all of them."""
    shape = values.shape
    m, dim = shape[0], len(shape) - 1
    inner = (slice(1, -1),) * dim
    group = 1 if max(shape[1:]) - 2 <= SINE_MATRIX_MAX else m
    y = np.empty((group,) + tuple(P - 2 for P in shape[1:]))
    spare = np.empty_like(y)
    out = np.zeros(shape)
    for lo in range(0, m, group):
        part = (slice(lo, lo + group),) + inner
        y[...] = values[part]
        for sweep in range(2):
            for axis in range(1, dim + 1):
                if _sine_axis(y, axis, spare) is spare:
                    y, spare = spare, y
            if sweep == 0:
                y /= eig
        out[part] = y
    return out


# ---------------------------------------------------------------------------
# Potential evaluations on component columns (m, N).


def poly_terms(coeffs, exps):
    """A monomial list (coeffs (K,), exps (K, m)) as the terms
    (coeff, ((axis, exponent), ...)) that ``poly_columns`` reads, with the
    zero exponents dropped."""
    return tuple(
        (float(c), tuple((j, int(e)) for j, e in enumerate(row) if e)) for c, row in zip(coeffs, exps)
    )


# Points per block of ``poly_columns``, so that a block's power columns, rows
# and scratch column stay in a 2 MB L2 cache.  At 33^3 the tetrahedral Hessian
# (6 upper-triangle rows from 19 terms) took 2.2 ms in one block, 0.93, 0.78
# and 0.74 ms in blocks of 4096, 8192 and 16384 points; its value and
# gradient (4 rows from 28 terms) 2.3, 1.40, 1.12 and 1.03 ms.  Fastest of
# 9 x 20 calls on (3, N) columns on one core of a Xeon with 2 MB of L2 per
# core, numpy 2.4.6.
POLY_BLOCK = 8192


def poly_columns(cols, polys, emax):
    """Several polynomials, each a ``poly_terms`` tuple of at least one term
    (as every ``Polynomial`` has), at the points whose coordinates are the
    rows of ``cols`` (m, N), as the rows of a (len(polys), N) array.

    Block by block of points, the powers cols[j] ** e for 1 <= e <= emax
    (at least every exponent in use) are contiguous columns, formed once by
    repeated products and shared by all the polynomials; a polynomial's first
    term is formed in its output row by in-place multiplies, and each further
    term likewise in one scratch column, then added to the row."""
    n_pts = cols.shape[1]
    out = np.empty((len(polys), n_pts))
    scratch = np.empty(min(POLY_BLOCK, n_pts))
    for lo in range(0, n_pts, POLY_BLOCK):
        block = cols[:, lo : lo + POLY_BLOCK]
        n = block.shape[1]
        powers = []
        for col in block:
            table = [None, np.ascontiguousarray(col)]
            for _ in range(emax - 1):
                table.append(table[-1] * table[1])
            powers.append(table)
        for row, terms in zip(out[:, lo : lo + n], polys):
            for k, (c, factors) in enumerate(terms):
                term = scratch[:n] if k else row  # the first term is formed in its row
                if factors:
                    (j, e), *rest = factors
                    np.multiply(powers[j][e], c, out=term)
                    for j, e in rest:
                        term *= powers[j][e]
                else:
                    term[...] = c
                if k:
                    row += term
    return out


# ---------------------------------------------------------------------------
# Multilinear interpolation on origin-centered uniform grids.  Query points
# are clamped to the box; callers mask out-of-box queries themselves.


def interp(cols: np.ndarray, pts: np.ndarray, lo: float, h: float) -> np.ndarray:
    """Clamped multilinear interpolation of a C-contiguous (m, *grid) array
    at N points, corner by corner from its rows in place, into (m, N) columns
    returned as their (N, m) view ``.T``: the point API and a point count read
    a point as a row.  A NaN point has NaN weights, so its row is NaN."""
    shape = cols.shape[1:]
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    cols = cols.reshape(cols.shape[0], -1)
    base, corners = 0, [(0, None)]  # per corner: (node offset, weight)
    for k, P in enumerate(shape):
        stride = math.prod(shape[k + 1 :])  # C-order node stride
        t = np.clip((pts[:, k] - lo) / h, 0.0, P - 1)
        i = np.minimum(t.astype(np.int64), P - 2)
        base = base + i * stride
        f = t - i
        axis = ((0, 1 - f), (stride, f))  # the lower node and the upper node
        corners = [(off + d, wk if w is None else w * wk) for off, w in corners for d, wk in axis]
    out = np.zeros((cols.shape[0], pts.shape[0]))
    gathered = np.empty(pts.shape[0])
    for off, w in corners:
        idx = base + off
        for col, acc in zip(cols, out):
            np.take(col, idx, out=gathered, mode="clip")  # "raise" would copy through a buffer
            gathered *= w
            acc += gathered
    return out.T


# ---------------------------------------------------------------------------
# Quadrature: the trapezoid rule on node grids, and the gradient part of the
# energy as forward-difference links weighted h^n with trapezoid weights on
# the transverse axes, returned with its exact gradient (so descent is the
# gradient flow of the reported energy at interior nodes).


def trapezoid_weights(shape) -> np.ndarray:
    """Product trapezoid weights on a node grid of this shape: 1/2 at both
    ends of every axis, 1 elsewhere (1.0 for the empty shape)."""
    out = np.ones(())
    for P in shape:
        w = np.ones(P)
        w[0] = w[-1] = 0.5
        out = np.multiply.outer(out, w)
    return out


def link_energy(values: np.ndarray, h: float) -> tuple:
    """The gradient part of the energy of an (m, *grid) array, half the
    squared forward-difference links over h^2, weighted h^n with trapezoid
    weights on the transverse axes, and its gradient times -1/h^n from the
    same links: the stencil in difference form, the sum over axes of
    (u[j+1] - u[j]) - (u[j] - u[j-1]) over h^2 at interior nodes, zero on
    the boundary layer.  Where neighbours are close, as near a well, the
    differences are exact and the sum rounds once, so a residual formed from
    it has a lower rounding floor than one from ``laplacian``, which the
    Hessian products keep.  Returns (energy, stencil)."""
    dim = values.ndim - 1
    idx = "ijk"[:dim]
    weights = [trapezoid_weights((P,)) for P in values.shape[1:]]
    lap = np.zeros_like(values)
    acc = lap[(slice(None),) + (slice(1, -1),) * dim]
    s = 0.0
    for a in range(dim):
        d = np.diff(values, axis=a + 1)
        # the links of axis a into (lo) and out of (hi) each interior node
        lo = (slice(None),) + tuple(slice(None, -1) if b == a else slice(1, -1) for b in range(dim))
        hi = (slice(None),) + tuple(slice(1, None) if b == a else slice(1, -1) for b in range(dim))
        if a == 0:
            np.subtract(d[hi], d[lo], out=acc)
        else:
            acc += d[hi]
            acc -= d[lo]
        d *= d
        others = [b for b in range(dim) if b != a]
        subs = ",".join(["m" + idx] + [idx[b] for b in others]) + "->"
        s += np.einsum(subs, d, *(weights[b] for b in others))
    acc /= h * h
    # the h^n cell measure over the h^2 difference scaling leaves h^(n-2)
    return 0.5 * s * h ** (dim - 2), lap
