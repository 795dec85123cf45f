"""Catalog of multi-well potentials with exact gradients and Hessians.

Every entry is an explicit polynomial in the order-parameter components,
so gradients and Hessians come from exponent manipulation rather than
automatic differentiation.  One generic kernel, ``kernels.poly_columns``,
evaluates the value and the gradient polynomials together from one power
table (or the value alone), and the upper triangle of the Hessian from
another, on component columns (m, N); the solvers take W and W_u, and the
Hessian's m(m+1)/2 upper-triangle rows, from one call each on their
columns.  The (N, m) point API (``value_field``, ``grad_field``,
``hess_field``) reads and returns transposes of the same calls.  Catalog
polynomials are literal monomial lists, not products expanded in floating
point.
A ``PotentialSpec`` is a name, a polynomial and its declared wells; m, c,
the nondegenerate flag and the radial monotonicity radius are derived from
the polynomial and the wells.  A coefficient or well that is not finite,
and wells that are not one row of m coordinates per well, raise ValueError
on construction.
Custom potentials are loaded from JSON monomial lists.
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels


class Polynomial:
    """Multivariate polynomial as a monomial list: sum of c * prod u_j^e_j."""

    def __init__(self, nvars: int, coeffs, exps):
        self.nvars = nvars
        coeffs = np.asarray(coeffs, dtype=np.float64)
        exps = np.asarray(exps, dtype=np.int64).reshape(len(coeffs), nvars)
        self.coeffs, self.exps = self._canonical(coeffs, exps)
        self.terms = kernels.poly_terms(self.coeffs, self.exps)
        self.degree = int(self.exps.sum(axis=1).max())  # total degree, which bounds every exponent

    @staticmethod
    def _canonical(coeffs, exps):
        acc: dict[tuple, float] = {}
        for c, e in zip(coeffs, exps):
            key = tuple(int(x) for x in e)
            if not np.isfinite(c):  # a nan fails the |v| > 1e-300 test below, which drops the term
                raise ValueError(f"monomial {list(key)} has coefficient {float(c)}; coefficients are finite numbers")
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
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, self.nvars)
        return kernels.poly_columns(pts.T, [self.terms], self.degree)[0]

    def derivative(self, j: int) -> "Polynomial":
        mask = self.exps[:, j] > 0
        coeffs = self.coeffs[mask] * self.exps[mask, j]
        exps = self.exps[mask].copy()
        exps[:, j] -= 1
        return Polynomial(self.nvars, coeffs, exps)  # the zero polynomial when no term has u_j

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


@dataclass(frozen=True)
class PotentialSpec:
    """Evaluatable potential: ``name``, ``poly`` and ``wells``.

    ``wells`` is an (N, m) array, N = 0 (or an empty list) for a degenerate
    zero set, stored as finite float64; the rest is derived on construction.
    ``m`` is ``poly.nvars``.  ``c`` is the nondegeneracy constant: the smallest
    Hessian eigenvalue over the wells, lambda, equals ``2 c^2`` (c = 0 when
    lambda <= 0), and ``nondegenerate`` is lambda > 0 (False without wells).
    ``radial_radius``, 2 max |a| + 1 (2 without wells), is the radius at which
    radial monotonicity W(s u) >= W(u), s >= 1 is spot-checked (recorded by
    sampling, not proved).  ``hess_index`` (m, m) holds the row of W_uu's
    entry (i, j) among the upper-triangle rows of ``hess_columns``.

    The ``*_columns`` methods evaluate at component columns (m, N) and
    return rows; the ``*_field`` methods take and return (N, m) points as
    transposed views of them.
    """

    name: str
    poly: Polynomial
    wells: np.ndarray

    def __post_init__(self):
        m = self.poly.nvars
        wells = np.asarray(self.wells, dtype=np.float64)
        if wells.shape == (0,):
            wells = wells.reshape(0, m)
        if wells.ndim != 2 or wells.shape[1] != m:  # not reshaped: three 2-vectors would read as two 3-vectors
            raise ValueError(f"wells of shape {wells.shape} must be an (N, {m}) array, one row per well")
        bad = np.flatnonzero(~np.isfinite(wells).all(axis=1))
        if bad.size:
            raise ValueError(f"well {bad[0]} {wells[bad[0]].tolist()} must be finite")
        grads = [self.poly.derivative(j) for j in range(m)]
        index = np.empty((m, m), dtype=np.int64)
        for k, (i, j) in enumerate(itertools.combinations_with_replacement(range(m), 2)):
            index[i, j] = index[j, i] = k
        self.__dict__.update(  # the frozen dataclass's own setattr refuses
            m=m, wells=wells, hess_index=index, _hess_terms=_hess_terms(grads),
            _fused_terms=[self.poly.terms] + [g.terms for g in grads],
        )
        lam = float(np.linalg.eigvalsh(self.hess_field(wells))[:, 0].min()) if len(wells) else 0.0
        self.__dict__.update(
            c=float(np.sqrt(max(lam, 0.0) / 2.0)), nondegenerate=lam > 0,
            radial_radius=2.0 * float(np.max(np.abs(wells))) + 1.0 if len(wells) else 2.0,
        )

    # -- component columns (m, N) -------------------------------------------

    def value_and_grad_columns(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """W (N,) and W_u (m, N) at the points whose coordinates are the rows
        of ``cols`` (m, N), from one kernel call."""
        rows = kernels.poly_columns(cols, self._fused_terms, self.poly.degree)
        return rows[0], rows[1:]

    def hess_columns(self, cols: np.ndarray) -> np.ndarray:
        """The upper triangle of W_uu, rows (0, 0), (0, 1), ..., (m-1, m-1),
        as an (m(m+1)/2, N) array, from one power table."""
        return kernels.poly_columns(cols, self._hess_terms, self.poly.degree)

    # -- flat points (N, m) -------------------------------------------------

    def value_field(self, pts: np.ndarray) -> np.ndarray:
        return kernels.poly_columns(_columns(pts), self._fused_terms[:1], self.poly.degree)[0]

    def grad_field(self, pts: np.ndarray) -> np.ndarray:
        return self.value_and_grad_columns(_columns(pts))[1].T

    def hess_field(self, pts: np.ndarray) -> np.ndarray:
        """W_uu (N, m, m) at flat points, the upper-triangle rows of
        ``hess_columns`` written out as the full matrix."""
        return self.hess_columns(_columns(np.reshape(pts, (-1, self.m)))).T[:, self.hess_index]

    # -- pointwise API ------------------------------------------------------

    def _as_points(self, u) -> tuple[np.ndarray, tuple]:
        """(N, m) points and their shape; a last axis other than m raises
        ValueError (a scalar is one point when m = 1)."""
        u = np.asarray(u, dtype=np.float64)
        if u.ndim == 0:
            u = u[None]
        if u.shape[-1] != self.m:
            raise ValueError(f"point length {u.shape[-1]} does not match potential {self.name!r} (m = {self.m})")
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


def _columns(pts) -> np.ndarray:
    """Flat points (N, m) as component columns (m, N): a transposed view."""
    return np.asarray(pts, dtype=np.float64).T


def _hess_terms(grads: list) -> list:
    """The terms of the upper-triangle W_uu entries (i, j), i <= j, in the
    order of ``itertools.combinations_with_replacement``, from the gradient
    polynomials."""
    pairs = itertools.combinations_with_replacement(range(len(grads)), 2)
    return [grads[i].derivative(j).terms for i, j in pairs]


def scalar_double_well() -> PotentialSpec:
    """W(u) = (u^2 - 1)^2 / 4 with wells at -1 and +1."""
    poly = Polynomial(1, [0.25, -0.5, 0.25], [[4], [2], [0]])
    return PotentialSpec("double_well", poly, [[-1.0], [1.0]])


def ginzburg_landau(m: int) -> PotentialSpec:
    """W(u) = (|u|^2 - 1)^2 / 4; connected zero set, flagged degenerate.

    Included as a negative control: its minimum set is the unit sphere, so
    the isolated-well checks are skipped rather than failed.
    """
    if m < 2:
        raise ValueError("ginzburg_landau needs m >= 2")
    exps = np.vstack([2 * np.eye(m, dtype=np.int64), np.zeros((1, m), dtype=np.int64)])
    shifted = Polynomial(m, [1.0] * m + [-1.0], exps)  # |u|^2 - 1
    poly = shifted * shifted * Polynomial(m, [0.25], [[0] * m])
    return PotentialSpec(f"ginzburg_landau_{m}", poly, np.zeros((0, m)))


TRIANGLE_WELLS = np.array(
    [
        [1.0, 0.0],
        [-0.5, np.sqrt(3.0) / 2.0],
        [-0.5, -np.sqrt(3.0) / 2.0],
    ]
)


def triple_well_triangle() -> PotentialSpec:
    """Triple well W(u) = prod_i |u - a_i|^2 = |u^3 - 1|^2, a_i the cube roots
    of unity and u = u1 + i u2 read as a complex number.

    Expanded exactly, W = (u1^2 + u2^2)^3 - 2 u1^3 + 6 u1 u2^2 + 1: seven
    monomials with integer coefficients.  Invariant under the dihedral-3
    group permuting the wells; each well is nondegenerate with Hessian 18 I
    (twice the product of the squared distances to the other two wells).
    """
    coeffs = [1.0, 3.0, 3.0, 1.0, -2.0, 6.0, 1.0]
    exps = [[6, 0], [4, 2], [2, 4], [0, 6], [3, 0], [1, 2], [0, 0]]
    return PotentialSpec("triple_well", Polynomial(2, coeffs, exps), TRIANGLE_WELLS)


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
    return PotentialSpec("tetra_well", poly, TETRA_WELLS)


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


def _known_keys(obj: dict, keys: tuple, where: str):
    """Raise ValueError naming the first key of ``obj`` outside ``keys``."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"{where} key {key!r} is unknown; the keys are {', '.join(keys)}")


def _number(value) -> bool:
    """Whether a JSON value is a number.  A float coercion would read true
    as 1.0 and "-2" as -2.0, so a bool and a string are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _numbers(value) -> bool:
    """Whether a JSON value is a ``_number`` or a (nested) list of them."""
    return all(map(_numbers, value)) if isinstance(value, (list, tuple)) else _number(value)


def _integral(value) -> bool:
    """Whether a JSON value is a whole number: a ``_number`` that is not a
    fraction and not non-finite (an int coercion would read 2.5 as 2)."""
    return _number(value) and float(value).is_integer()


def potential_from_json(path_or_dict) -> PotentialSpec:
    """Load a custom polynomial potential:
    {"name", "monomials": [{"coeff", "exponents"}], "wells"}.  Any other
    key, a name that is not a string, a coefficient or a well coordinate
    that is not a number and an exponent that is not a non-negative integer
    raise ValueError naming it; so do ``Polynomial`` for a coefficient and
    ``PotentialSpec`` for a well that is not finite."""
    if isinstance(path_or_dict, (str, bytes)):
        with open(path_or_dict) as fh:
            data = json.load(fh)
    else:
        data = path_or_dict
    monos = data.get("monomials") if isinstance(data, dict) else None
    if not monos:
        raise ValueError("custom potential needs a non-empty 'monomials' list")
    _known_keys(data, ("name", "monomials", "wells"), "custom potential")
    name = data.get("name", "custom")
    if not isinstance(name, str):  # it is echoed into the reports
        raise ValueError(f"custom potential name {name!r} is not a string")
    for mo in monos:
        _known_keys(mo, ("coeff", "exponents"), "monomial")
        if not _number(mo["coeff"]):
            raise ValueError(f"monomial {mo!r} has coefficient {mo['coeff']!r}; coefficients are numbers")
        for e in mo["exponents"]:
            if not _integral(e) or e < 0:  # -1 would read as a wrong power
                raise ValueError(f"monomial {mo!r} has exponent {e!r}; exponents are non-negative integers")
    wells = data.get("wells", [])
    if not _numbers(wells):
        raise ValueError(f"custom potential wells {wells!r} are not lists of numbers")
    exps = [mo["exponents"] for mo in monos]
    poly = Polynomial(len(exps[0]), [mo["coeff"] for mo in monos], exps)
    return PotentialSpec(name, poly, wells)


def invariance_residual(spec: PotentialSpec, maps, rng, sample_count: int = 100) -> float:
    """max over the orthogonal maps g and ``sample_count`` points u drawn
    uniformly from [-2, 2]^m of |W(g u) - W(u)|: a sampled invariance check,
    not a proof."""
    samples = rng.uniform(-2.0, 2.0, size=(sample_count, spec.m))
    W = spec.value_field(samples)
    return max(float(np.max(np.abs(spec.value_field(samples @ g.T) - W))) for g in maps)


def verify_hypotheses(spec: PotentialSpec, group, sample_count: int = 100) -> dict:
    """Check the standing structural assumptions on a catalog entry, on
    samples drawn with seed 0.

    Returns a report dict; nothing is raised.  For entries flagged
    degenerate (connected zero set) the isolated-well checks are skipped.
    """
    rng = np.random.default_rng(0)
    inv = invariance_residual(spec, group.elements, rng, sample_count)
    report = {
        "potential": spec.name,
        "group": group.name,
        "invariance_residual": inv,
        "sample_count": sample_count,
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
    if spec.nondegenerate and spec.m == group.dimension:
        count = 0
        for a in spec.wells:
            if np.all(group.wall_normals @ a >= -1e-9):
                count += 1
        report["wells_in_fundamental_region"] = count
    return report


def find_wells(spec: PotentialSpec, seeds):
    """Refine well locations by damped Newton on the gradient, at most 100
    steps per seed to a gradient of sup norm 1e-10.

    Returns (wells, failures): converged points with positive-definite
    Hessian, merged within 1e-8, and a list of per-seed failure notes.
    """
    found = []
    failures = []
    for seed in np.asarray(seeds, dtype=np.float64).reshape(-1, spec.m):
        u = seed.copy()
        ok = False
        for _ in range(100):
            g = spec.grad(u)
            if np.linalg.norm(g, np.inf) <= 1e-10:
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
                    "reason": "no convergence in 100 iterations",
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
