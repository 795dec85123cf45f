"""1D heteroclinic connections between wells by discrete action minimization.

The profile U on [-L, L] has its ends clamped to the wells; its interior
descends the discrete action, which is ``fields.discrete_energy`` of the
(K+1, m) profile, by the Newton-Krylov loop that also solves the 2D and 3D
fields (``fields.newton_krylov``) until the collocation residual
U_{j+1} - 2 U_j + U_{j-1} - h^2 W_u(U_j) is at tolerance.  The action of the
solved profile is the interface energy sigma fed to the sharp-interface side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fields, kernels, potentials

MAX_STEPS = 60  # Newton steps of one connection solve
MIN_INTERVALS = 4  # the smallest grid whose linearized spectrum can be computed
INVARIANCE_TOL = 1e-8  # sampled |W(r u) - W(u)| below which W counts as r-invariant


@dataclass(frozen=True)
class ConnectionProfile:
    """Sampled connection: nodes eta_j = -L + j h, values U_j, clamped wells."""

    eta: np.ndarray
    values: np.ndarray
    a_minus: np.ndarray
    a_plus: np.ndarray
    potential: object
    residual: float = np.inf
    converged: bool = False

    @property
    def h(self) -> float:
        return float(self.eta[1] - self.eta[0])

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def reversed(self) -> "ConnectionProfile":
        return replace(
            self,
            values=self.values[::-1].copy(),
            a_minus=self.a_plus,
            a_plus=self.a_minus,
        )

    def sample(self, t) -> np.ndarray:
        """Clamped linear interpolation of the profile."""
        t = np.clip(np.asarray(t, dtype=np.float64), self.eta[0], self.eta[-1])
        idx = np.clip(np.searchsorted(self.eta, t) - 1, 0, len(self.eta) - 2)
        frac = ((t - self.eta[idx]) / self.h)[..., None]
        return self.values[idx] * (1 - frac) + self.values[idx + 1] * frac

    def derivative(self) -> np.ndarray:
        """Centered first derivative (one-sided second order at the ends)."""
        U = self.values
        h = self.h
        dU = np.empty_like(U)
        dU[1:-1] = (U[2:] - U[:-2]) / (2 * h)
        dU[0] = (-3 * U[0] + 4 * U[1] - U[2]) / (2 * h)
        dU[-1] = (3 * U[-1] - 4 * U[-2] + U[-3]) / (2 * h)
        return dU


class ConnectionError(RuntimeError):
    pass


def _newton_matrix(U: np.ndarray, h: float, potential) -> sp.csc_matrix:
    """The linearization v -> v'' - W_uu(U) v over interior nodes, Dirichlet ends."""
    n_int, m = U.shape[0] - 2, U.shape[1]
    lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n_int, n_int)) / h**2
    H = sp.bsr_matrix((potential.hess_field(U[1:-1]), np.arange(n_int), np.arange(n_int + 1)))
    return (sp.kron(lap, sp.eye(m)) - H).tocsc()


def _pair_reflection(a_minus, a_plus) -> np.ndarray:
    """The reflection across the plane normal to a_plus - a_minus through 0."""
    n = a_plus - a_minus
    norm = np.linalg.norm(n)
    if norm < 1e-12:  # degenerate (constant) profile: no wall to reflect across
        return np.eye(n.shape[0])
    n = n / norm
    return np.eye(n.shape[0]) - 2.0 * np.outer(n, n)


def _symmetric_projection(potential, a_minus, a_plus):
    """The projection V -> (V + r V reversed) / 2 onto U(-eta) = r U(eta),
    r = ``_pair_reflection`` of the wells, if r swaps them and leaves W
    invariant on a fixed sample (as ``verify_hypotheses`` checks); else None."""
    r = _pair_reflection(a_minus, a_plus)
    if np.linalg.norm(r @ a_plus - a_minus) > 1e-9:
        return None
    if potentials.invariance_residual(potential, [r], np.random.default_rng(0)) > INVARIANCE_TOL:
        return None
    return lambda V: 0.5 * (V + V[::-1] @ r.T)


def solve_connection(
    potential,
    a_minus,
    a_plus,
    half_length: float = 10.0,
    intervals: int = 2000,
    tol: float = 1e-8,
) -> ConnectionProfile:
    """Compute the heteroclinic connection between two wells.

    Nodes eta_j = -L + j h with h = 2L/intervals, the ends clamped to the
    wells; from a tanh ramp, ``fields.newton_krylov`` descends the discrete
    action over the interior (at most ``MAX_STEPS`` steps).  Newton steps
    drift along the clamped interval's near-null translation mode, so when
    the reflection r swapping the wells leaves W invariant, the start and
    every direction are projected onto the class U(-eta) = r U(eta).
    Without that symmetry fine grids can stop short (an asymmetric sextic
    double well: residual 1.2e-6 at 10 000 intervals against tol 1e-10).

    ``residual`` is the sup over interior nodes of the Euclidean norm of the
    collocation residual, as in fields (for m > 1 stricter than the
    componentwise sup).  Raises ValueError for a half_length that is not
    positive and finite, fewer than ``MIN_INTERVALS`` intervals or a tol
    that is not positive, and ConnectionError for identical endpoints or
    one that is not a zero of W; non-convergence is reported on the
    returned profile (converged flag and final residual)."""
    half_length, K, tol = float(half_length), int(intervals), float(tol)
    if not (np.isfinite(half_length) and half_length > 0):
        raise ValueError(f"half_length must be positive and finite; got {half_length!r}")
    if K < MIN_INTERVALS:
        raise ValueError(f"intervals must be at least {MIN_INTERVALS}; got {K}")
    if not tol > 0:
        raise ValueError(f"tol must be positive; got {tol!r}")
    a_minus = np.atleast_1d(np.asarray(a_minus, dtype=np.float64))
    a_plus = np.atleast_1d(np.asarray(a_plus, dtype=np.float64))
    if np.linalg.norm(a_plus - a_minus) <= 1e-8:
        raise ConnectionError("endpoints coincide: no connection to compute")
    for a in (a_minus, a_plus):
        if abs(potential.value(a)) > 1e-8:
            raise ConnectionError("endpoint is not a zero of the potential")
    h = 2.0 * half_length / K
    eta = -half_length + h * np.arange(K + 1)

    gap = np.linalg.norm(a_plus - a_minus)
    rate = np.sqrt(2.0) * max(potential.c, 0.3) / gap
    ramp = 0.5 * (1.0 + np.tanh(rate * eta))[:, None]
    U = a_minus[None, :] + (a_plus - a_minus)[None, :] * ramp
    project = _symmetric_projection(potential, a_minus, a_plus)
    if project is not None:
        U = project(U)
    U[0] = a_minus
    U[-1] = a_plus

    U, _, res, _, _, _ = fields.newton_krylov(U, potential, h, tol, MAX_STEPS, project)
    return ConnectionProfile(
        eta=eta,
        values=U,
        a_minus=a_minus,
        a_plus=a_plus,
        potential=potential,
        residual=res,
        converged=bool(res <= tol),
    )


def equipartition_residual(profile: ConnectionProfile) -> float:
    """max over interior nodes of | |U'|^2/2 - W(U) | (centered differences)."""
    U = profile.values
    h = profile.h
    dU = (U[2:] - U[:-2]) / (2 * h)
    kin = 0.5 * np.sum(dU * dU, axis=1)
    pot = profile.potential.value_field(U[1:-1])
    return float(np.max(np.abs(kin - pot)))


def action(profile: ConnectionProfile) -> float:
    """Trapezoidal action of the profile; for a solved connection this is the
    interface energy sigma."""
    dU = profile.derivative()
    integrand = 0.5 * np.sum(dU * dU, axis=1) + profile.potential.value_field(profile.values)
    return float(profile.h * (kernels.trapezoid_weights(integrand.shape) @ integrand))


def linearized_spectrum(profile: ConnectionProfile, k: int = 6):
    """Eigenvalues of L v = v'' - W_uu(U) v near zero (Dirichlet ends).

    Returns (eigenvalues, parities) sorted by |eigenvalue|; parity is +1 for
    eigenvectors in the symmetric class v(-eta) = T v(eta) with T the
    reflection swapping the endpoint wells, -1 otherwise (the translation
    mode U' lives in the -1 sector)."""
    U = profile.values
    h = profile.h
    A = _newton_matrix(U, h, profile.potential)
    n_int = U.shape[0] - 2
    m = profile.m
    k = min(k, A.shape[0] - 2)
    v0 = np.ones(A.shape[0])  # deterministic ARPACK start
    vals, vecs = spla.eigsh(A, k=k, sigma=0.0, which="LM", v0=v0)
    T = _pair_reflection(profile.a_minus, profile.a_plus)
    order = np.argsort(np.abs(vals))
    vals = vals[order]
    vecs = vecs[:, order]
    parities = []
    for i in range(vals.shape[0]):
        v = vecs[:, i].reshape(n_int, m)
        sv = (v[::-1] @ T.T).ravel()
        plus = np.linalg.norm(sv - vecs[:, i])
        minus = np.linalg.norm(sv + vecs[:, i])
        parities.append(1 if plus < minus else -1)
    return vals, np.array(parities)


def hyperbolicity_gap(profile: ConnectionProfile) -> float:
    """Smallest |eigenvalue| of the linearized operator restricted to the
    symmetric variation class (translation mode removed)."""
    vals, parities = linearized_spectrum(profile)
    sym = np.abs(vals[parities == 1])
    if sym.size == 0:
        # all computed modes antisymmetric: the symmetric sector starts higher
        return float(np.max(np.abs(vals)))
    return float(np.min(sym))


def tail_decay_rate(profile: ConnectionProfile, lo: float = 1e-10, hi: float = 1e-1):
    """Least-squares fit of log|U - a_plus| on the right tail.

    Returns (K, k) with |U - a_plus| ~ K exp(-k eta); the window keeps
    samples with deviation in [lo, hi]."""
    dev = np.linalg.norm(profile.values - profile.a_plus[None, :], axis=1)
    half = len(dev) // 2
    sel = (dev[half:] >= lo) & (dev[half:] <= hi)
    if np.count_nonzero(sel) < 4:
        raise ConnectionError("tail window too small for a decay fit")
    x = profile.eta[half:][sel]
    y = np.log(dev[half:][sel])
    slope, intercept = np.polyfit(x, y, 1)
    return float(np.exp(intercept)), float(-slope)


def save_profile(profile: ConnectionProfile, csv_path):
    header = ["eta"] + [f"U{i + 1}" for i in range(profile.m)]
    fields.write_csv(csv_path, header, np.column_stack([profile.eta, profile.values]))
