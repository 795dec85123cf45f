"""Catalog of multi-well potentials with exact gradients and Hessians.

Every entry is backed by an explicit polynomial in the order-parameter
components, so gradients and Hessians come from exponent manipulation
rather than automatic differentiation.  Each kind of potential (``prodwell``,
``tetra``, ``poly``) has one fused kernel in :mod:`multiwell.kernels` that
returns the value and the gradient together from shared intermediates, or
the value alone; the solvers take both from one call, and
``value_field``/``grad_field`` are views of it.  The ``prodwell`` and
``tetra`` kinds also have closed-form Hessian kernels.  The polynomial form
is the exactness reference and also serves custom potentials loaded from
JSON monomial lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels


class Polynomial:
    """Multivariate polynomial as a monomial list: sum of c * prod u_j^e_j."""

    def __init__(self, nvars: int, coeffs, exps):
        self.nvars = nvars
        coeffs = np.asarray(coeffs, dtype=np.float64)
        exps = np.asarray(exps, dtype=np.int64).reshape(len(coeffs), nvars)
        self.coeffs, self.exps = self._canonical(coeffs, exps)

    @staticmethod
    def _canonical(coeffs, exps):
        acc: dict[tuple, float] = {}
        for c, e in zip(coeffs, exps):
            key = tuple(int(x) for x in e)
            acc[key] = acc.get(key, 0.0) + float(c)
        keys = sorted(k for k, v in acc.items() if abs(v) > 1e-300)
        if not keys:
            keys = [tuple([0] * exps.shape[1])]
            return np.zeros(1), np.array(keys, dtype=np.int64)
        return (
            np.array([acc[k] for k in keys]),
            np.array(keys, dtype=np.int64),
        )

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.ascontiguousarray(pts, dtype=np.float64).reshape(-1, self.nvars)
        return kernels.poly_value(pts, self.coeffs, self.exps)

    def derivative(self, j: int) -> "Polynomial":
        mask = self.exps[:, j] > 0
        coeffs = self.coeffs[mask] * self.exps[mask, j]
        exps = self.exps[mask].copy()
        exps[:, j] -= 1
        if coeffs.size == 0:
            return Polynomial(self.nvars, [0.0], [[0] * self.nvars])
        return Polynomial(self.nvars, coeffs, exps)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        coeffs = np.outer(self.coeffs, other.coeffs).ravel()
        exps = (self.exps[:, None, :] + other.exps[None, :, :]).reshape(-1, self.nvars)
        return Polynomial(self.nvars, coeffs, exps)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(
            self.nvars,
            np.concatenate([self.coeffs, other.coeffs]),
            np.concatenate([self.exps, other.exps]),
        )


def _quadratic_well(nvars: int, a: np.ndarray) -> Polynomial:
    """|u - a|^2 as a Polynomial."""
    coeffs = []
    exps = []
    for j in range(nvars):
        e = [0] * nvars
        e[j] = 2
        coeffs.append(1.0)
        exps.append(e)
        e = [0] * nvars
        e[j] = 1
        coeffs.append(-2.0 * a[j])
        exps.append(e)
    coeffs.append(float(np.dot(a, a)))
    exps.append([0] * nvars)
    return Polynomial(nvars, coeffs, exps)


@dataclass(frozen=True)
class PotentialSpec:
    """Evaluatable potential with declared wells and verification constants.

    ``c`` is the nondegeneracy constant: the smallest Hessian eigenvalue over
    the wells equals ``2 c^2``.  ``radial_radius`` is the radius at which
    radial monotonicity W(s u) >= W(u), s >= 1 is spot-checked (recorded by
    sampling, not proved).  ``strictness_radius`` is a radius of guaranteed
    local strictness around each well.
    """

    name: str
    m: int
    poly: Polynomial
    wells: np.ndarray  # (nw, m); empty for degenerate zero sets
    nondegenerate: bool
    c: float
    radial_radius: float
    strictness_radius: float
    kind: str = "poly"  # fused-kernel selector: prodwell | tetra | poly
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        grads = [self.poly.derivative(j) for j in range(self.m)]
        object.__setattr__(self, "_grad_polys", grads)
        object.__setattr__(
            self, "_hess_polys", [[g.derivative(j) for j in range(self.m)] for g in grads]
        )

    # -- vectorized field paths -------------------------------------------

    def _fused(self, pts: np.ndarray, grad: bool) -> tuple:
        """(W, W_u) from the one fused kernel of this potential's kind; W_u
        is None, and not computed, when ``grad`` is false."""
        pts = np.ascontiguousarray(pts, dtype=np.float64)
        if self.kind == "prodwell":
            return kernels.prodwell_value_grad(pts, self.params["kwells"], self.params["scale"], grad)
        if self.kind == "tetra":
            return kernels.tetra_value_grad(pts, grad)
        grads = [(g.coeffs, g.exps) for g in self._grad_polys] if grad else None
        return kernels.poly_value_grad(pts, self.poly.coeffs, self.poly.exps, grads)

    def value_and_grad_field(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """W (N,) and W_u (N, m) at flat points (N, m), from one kernel call."""
        return self._fused(pts, True)

    def value_field(self, pts: np.ndarray) -> np.ndarray:
        return self._fused(pts, False)[0]

    def grad_field(self, pts: np.ndarray) -> np.ndarray:
        return self._fused(pts, True)[1]

    def hess_field(self, pts: np.ndarray) -> np.ndarray:
        """W_uu (N, m, m) at flat points: the closed-form kernel of the
        ``prodwell`` and ``tetra`` kinds, else one polynomial per entry."""
        pts = np.ascontiguousarray(pts, dtype=np.float64).reshape(-1, self.m)
        if self.kind == "prodwell":
            return kernels.prodwell_hess(pts, self.params["kwells"], self.params["scale"])
        if self.kind == "tetra":
            return kernels.tetra_hess(pts)
        H = np.empty((pts.shape[0], self.m, self.m))
        for i in range(self.m):
            for j in range(self.m):
                H[:, i, j] = self._hess_polys[i][j](pts)
        return H

    # -- pointwise API ------------------------------------------------------

    def _as_points(self, u) -> tuple[np.ndarray, tuple]:
        u = np.asarray(u, dtype=np.float64)
        if u.ndim == 0:
            u = u[None]
        shape = u.shape[:-1]
        return u.reshape(-1, self.m), shape

    def value(self, u):
        pts, shape = self._as_points(u)
        out = self.value_field(pts)
        return float(out[0]) if shape == () else out.reshape(shape)

    def grad(self, u):
        pts, shape = self._as_points(u)
        out = self.grad_field(pts)
        return out[0] if shape == () else out.reshape(shape + (self.m,))

    def hess(self, u) -> np.ndarray:
        pts, shape = self._as_points(u)
        if shape != ():
            raise ValueError("hess takes a single point")
        return self.hess_field(pts)[0]


def _well_constants(poly: Polynomial, wells: np.ndarray) -> float:
    """Smallest Hessian eigenvalue over the declared wells."""
    m = poly.nvars
    grads = [poly.derivative(j) for j in range(m)]
    lam = np.inf
    for a in wells:
        H = np.array([[grads[i].derivative(j)(a[None, :])[0] for j in range(m)] for i in range(m)])
        lam = min(lam, float(np.linalg.eigvalsh(H)[0]))
    return lam


def _build(name, poly, wells, kind="poly", params=None, radial_radius=None):
    wells = np.asarray(wells, dtype=np.float64).reshape(-1, poly.nvars)
    nondeg = wells.shape[0] > 0
    lam = _well_constants(poly, wells) if nondeg else 0.0
    c = float(np.sqrt(max(lam, 0.0) / 2.0))
    if wells.shape[0] >= 2:
        d = wells[:, None, :] - wells[None, :, :]
        dist = np.sqrt(np.sum(d * d, axis=2))
        q0 = 0.5 * float(dist[dist > 0].min())
    else:
        q0 = 1.0
    if radial_radius is None:
        radial_radius = 2.0 * float(np.max(np.abs(wells))) + 1.0 if nondeg else 2.0
    return PotentialSpec(
        name=name,
        m=poly.nvars,
        poly=poly,
        wells=wells,
        nondegenerate=nondeg and lam > 0,
        c=c,
        radial_radius=radial_radius,
        strictness_radius=q0,
        kind=kind,
        params=params or {},
    )


def scalar_double_well() -> PotentialSpec:
    """W(u) = (u^2 - 1)^2 / 4 with wells at -1 and +1."""
    poly = Polynomial(1, [0.25, -0.5, 0.25], [[4], [2], [0]])
    kwells = np.array([[-1.0], [1.0]])
    return _build(
        "double_well", poly, kwells, kind="prodwell", params={"kwells": kwells, "scale": 0.25}
    )


def ginzburg_landau(m: int) -> PotentialSpec:
    """W(u) = (|u|^2 - 1)^2 / 4; connected zero set, flagged degenerate.

    Included as a negative control: its minimum set is the unit sphere, so
    the isolated-well checks are skipped rather than failed.
    """
    if m < 2:
        raise ValueError("ginzburg_landau needs m >= 2")
    coeffs = []
    exps = []
    for i in range(m):
        e = [0] * m
        e[i] = 4
        coeffs.append(0.25)
        exps.append(e)
    for i in range(m):
        for j in range(i + 1, m):
            e = [0] * m
            e[i] = 2
            e[j] = 2
            coeffs.append(0.5)
            exps.append(e)
    for i in range(m):
        e = [0] * m
        e[i] = 2
        coeffs.append(-0.5)
        exps.append(e)
    coeffs.append(0.25)
    exps.append([0] * m)
    poly = Polynomial(m, coeffs, exps)
    return _build(f"ginzburg_landau_{m}", poly, np.zeros((0, m)))


TRIANGLE_WELLS = np.array(
    [
        [1.0, 0.0],
        [-0.5, np.sqrt(3.0) / 2.0],
        [-0.5, -np.sqrt(3.0) / 2.0],
    ]
)


def triple_well_triangle() -> PotentialSpec:
    """Product-form triple well: W(u) = prod_i |u - a_i|^2, a_i cube roots of unity.

    Invariant under the dihedral-3 group permuting the wells; each well is
    nondegenerate with Hessian 18 I (twice the product of the squared
    distances to the other two wells).
    """
    factors = [_quadratic_well(2, a) for a in TRIANGLE_WELLS]
    poly = factors[0] * factors[1] * factors[2]
    return _build(
        "triple_well",
        poly,
        TRIANGLE_WELLS,
        kind="prodwell",
        params={"kwells": TRIANGLE_WELLS.copy(), "scale": 1.0},
    )


TETRA_A1 = np.array([np.sqrt(2.0 / 3.0), 0.0, 1.0 / np.sqrt(3.0)])
TETRA_WELLS = np.array(
    [
        [np.sqrt(2.0 / 3.0), 0.0, 1.0 / np.sqrt(3.0)],
        [-np.sqrt(2.0 / 3.0), 0.0, 1.0 / np.sqrt(3.0)],
        [0.0, np.sqrt(2.0 / 3.0), -1.0 / np.sqrt(3.0)],
        [0.0, -np.sqrt(2.0 / 3.0), -1.0 / np.sqrt(3.0)],
    ]
)


def tetra_quadruple_well() -> PotentialSpec:
    """Quartic quadruple well whose minima form a regular tetrahedron.

    W(u) = |u|^4 - (4/sqrt(3)) (u1^2 - u2^2) u3 - (2/3)|u|^2 + 5/9,
    vanishing on the orbit of (sqrt(2/3), 0, 1/sqrt(3)).
    """
    c = 4.0 / np.sqrt(3.0)
    coeffs = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, -c, c, -2.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0, 5.0 / 9.0]
    exps = [
        [4, 0, 0],
        [0, 4, 0],
        [0, 0, 4],
        [2, 2, 0],
        [2, 0, 2],
        [0, 2, 2],
        [2, 0, 1],
        [0, 2, 1],
        [2, 0, 0],
        [0, 2, 0],
        [0, 0, 2],
        [0, 0, 0],
    ]
    poly = Polynomial(3, coeffs, exps)
    return _build("tetra_well", poly, TETRA_WELLS, kind="tetra")


_CATALOG = {
    "double_well": scalar_double_well,
    "triple_well": triple_well_triangle,
    "tetra_well": tetra_quadruple_well,
    "ginzburg_landau_2": lambda: ginzburg_landau(2),
    "ginzburg_landau_3": lambda: ginzburg_landau(3),
}


def get_potential(name: str) -> PotentialSpec:
    if name not in _CATALOG:
        raise KeyError(f"unknown potential {name!r}; have {sorted(_CATALOG)}")
    return _CATALOG[name]()


def potential_from_json(path_or_dict) -> PotentialSpec:
    """Load a custom polynomial potential: {"monomials": [{"coeff", "exponents"}]}."""
    if isinstance(path_or_dict, (str, bytes)):
        with open(path_or_dict) as fh:
            data = json.load(fh)
    else:
        data = path_or_dict
    monos = data.get("monomials") if isinstance(data, dict) else None
    if not monos:
        raise ValueError("custom potential needs a non-empty 'monomials' list")
    exps = [mo["exponents"] for mo in monos]
    coeffs = [mo["coeff"] for mo in monos]
    m = len(exps[0])
    poly = Polynomial(m, coeffs, exps)
    wells = np.asarray(data.get("wells", []), dtype=np.float64).reshape(-1, m)
    return _build(data.get("name", "custom"), poly, wells)


def verify_hypotheses(spec: PotentialSpec, group, sample_count: int = 100, tol: float = 1e-10, seed: int = 0) -> dict:
    """Check the standing structural assumptions on a catalog entry.

    Returns a report dict; nothing is raised.  For entries flagged
    degenerate (connected zero set) the isolated-well checks are skipped.
    """
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-2.0, 2.0, size=(sample_count, spec.m))
    inv = 0.0
    for g in group.elements:
        inv = max(inv, float(np.max(np.abs(spec.value_field(samples @ g.T) - spec.value_field(samples)))))
    report = {
        "potential": spec.name,
        "group": group.name,
        "invariance_residual": inv,
        "sample_count": sample_count,
        "tolerance": tol,
    }
    if spec.nondegenerate:
        lam = min(float(np.linalg.eigvalsh(spec.hess(a))[0]) for a in spec.wells)
        report["min_hessian_eigenvalue"] = lam
        report["nondegeneracy_constant_2c2"] = 2.0 * spec.c**2
        report["well_values_max"] = float(np.max(np.abs(spec.value_field(spec.wells))))
    else:
        report["min_hessian_eigenvalue"] = None
        report["degenerate_zero_set"] = True
    # radial monotonicity spot-check on |u| = M
    dirs = rng.normal(size=(32, spec.m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    base = spec.radial_radius * dirs
    worst = 0.0
    for s in np.linspace(1.0, 2.0, 9)[1:]:
        worst = max(worst, float(np.max(spec.value_field(base) - spec.value_field(s * base))))
    report["radial_monotonicity_radius"] = spec.radial_radius
    report["radial_monotonicity_violation"] = worst
    if spec.nondegenerate and hasattr(group, "wall_normals") and spec.m == group.dimension:
        count = 0
        for a in spec.wells:
            if np.all(group.wall_normals @ a >= -1e-9):
                count += 1
        report["wells_in_fundamental_region"] = count
    return report


def find_wells(spec: PotentialSpec, seeds, tol: float = 1e-10, max_iter: int = 100):
    """Refine well locations by damped Newton on the gradient.

    Returns (wells, failures): converged points with positive-definite
    Hessian, merged within 1e-8, and a list of per-seed failure notes.
    """
    found = []
    failures = []
    for seed in np.asarray(seeds, dtype=np.float64).reshape(-1, spec.m):
        u = seed.copy()
        ok = False
        for _ in range(max_iter):
            g = spec.grad(u)
            if np.linalg.norm(g, np.inf) <= tol:
                ok = True
                break
            H = spec.hess(u)
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                failures.append({"seed": seed.tolist(), "reason": "singular Hessian"})
                break
            lam = 1.0
            gn = np.linalg.norm(g)
            while lam > 1e-8:
                trial = u + lam * step
                if np.linalg.norm(spec.grad(trial)) < gn:
                    break
                lam *= 0.5
            u = u + lam * step
        else:
            failures.append(
                {
                    "seed": seed.tolist(),
                    "reason": f"no convergence in {max_iter} iterations",
                    "grad_norm": float(np.linalg.norm(spec.grad(u), np.inf)),
                }
            )
            continue
        if not ok:
            continue
        H = spec.hess(u)
        if np.linalg.eigvalsh(H)[0] <= 0:
            failures.append({"seed": seed.tolist(), "reason": "stationary but Hessian not positive definite"})
            continue
        if not any(np.linalg.norm(u - w) <= 1e-8 for w in found):
            found.append(u)
    return np.array(found).reshape(-1, spec.m), failures
