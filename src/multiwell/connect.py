"""1D heteroclinic connections between wells by discrete action minimization.

The profile U on [-L, L] has its ends clamped to the wells; its interior
descends the discrete action, which is ``fields.discrete_energy`` of the
(K+1, m) profile, by the Newton-Krylov loop that also solves the 2D and 3D
fields (``fields.newton_krylov``) until the collocation residual
U_{j+1} - 2 U_j + U_{j-1} - h^2 W_u(U_j) is at tolerance.  The action of the
solved profile, the discrete energy that loop minimized, is the interface
energy sigma fed to the sharp-interface side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fields, groups, kernels, potentials

MAX_STEPS = 60  # Newton steps of one connection solve
MIN_INTERVALS = 4  # the fewest intervals accepted
INVARIANCE_TOL = 1e-8  # sampled |W(r u) - W(u)| below which W counts as r-invariant
GAP_TOL = 1e-12  # eigen-residual, relative to |lambda| + 4 dim / h^2, that stops the gap
GAP_MAX_ITER = 200  # LOBPCG steps of the hyperbolicity gap
GAP_RANK_TOL = 1e-8  # singular values below this fraction of the largest leave the basis
WELL_TOL = 1e-8  # |W(a)| above which an endpoint a is not a zero of W


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
        """(eta_K - eta_0) / K: eta_1 - eta_0 carries the rounding of eta_0,
        which a node index (t - eta_0) / h would multiply by up to K."""
        return float((self.eta[-1] - self.eta[0]) / (len(self.eta) - 1))

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
        """The profile at the points t, shape t.shape + (m,): linear
        interpolation between the nodes, clamped to [eta_0, eta_K]
        (``kernels.interp`` on the 1D profile)."""
        t = np.asarray(t, dtype=np.float64)
        out = kernels.interp(self.values, t.reshape(-1, 1), self.eta[0], self.h)
        return out.reshape(t.shape + (self.m,))

    def derivative(self) -> np.ndarray:
        """First derivative by ``np.gradient``: the centered difference
        (U_{j+1} - U_{j-1}) / 2h inside, one-sided second order at the ends."""
        return np.gradient(self.values, self.h, axis=0, edge_order=2)


class ConnectionError(RuntimeError):
    pass


def _symmetric_projection(potential, a_minus, a_plus):
    """The projection onto U(-eta) = r U(eta), ``fields.node_projection`` of
    the pairs (1, I) and (-1, r) on the profile's (m, nodes) columns, r the reflection
    ``groups.reflection_matrix`` across the plane normal to a_plus - a_minus,
    if r swaps the wells and leaves W invariant on a fixed sample (as
    ``verify_hypotheses`` checks, once per potential and r: the verdict is
    kept on the potential); else None, as for coincident wells."""
    n = a_plus - a_minus
    if not np.any(n):
        return None
    r = groups.reflection_matrix(n)
    if np.linalg.norm(r @ a_plus - a_minus) > 1e-9:
        return None
    key, broken = r.tobytes(), vars(potential).setdefault("_broken_reflections", {})
    if key not in broken:
        broken[key] = potentials.invariance_residual(potential, [r], np.random.default_rng(0)) > INVARIANCE_TOL
    if broken[key]:
        return None
    one = np.eye(1)
    return fields.node_projection([(one, np.eye(r.shape[0])), (-one, r)])


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
    componentwise sup).  Raises ValueError for a half_length or a tol that
    is not positive and finite, fewer than ``MIN_INTERVALS`` intervals or an
    endpoint that is not finite, and ConnectionError for identical endpoints
    or one that is not a zero of W; non-convergence is reported on the
    returned profile (converged flag and final residual)."""
    half_length, K, tol = float(half_length), int(intervals), float(tol)
    if not (np.isfinite(half_length) and half_length > 0):
        raise ValueError(f"half_length must be positive and finite; got {half_length!r}")
    if K < MIN_INTERVALS:
        raise ValueError(f"intervals must be at least {MIN_INTERVALS}; got {K}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite; got {tol!r}")
    a_minus = np.atleast_1d(np.asarray(a_minus, dtype=np.float64))
    a_plus = np.atleast_1d(np.asarray(a_plus, dtype=np.float64))
    if not (np.all(np.isfinite(a_minus)) and np.all(np.isfinite(a_plus))):
        raise ValueError("endpoints must be finite")
    if np.linalg.norm(a_plus - a_minus) <= 1e-8:
        raise ConnectionError("endpoints coincide: no connection to compute")
    for a in (a_minus, a_plus):
        if not abs(potential.value(a)) <= WELL_TOL:
            raise ConnectionError("endpoint is not a zero of the potential")
    h = 2.0 * half_length / K
    eta = -half_length + h * np.arange(K + 1)

    gap = np.linalg.norm(a_plus - a_minus)
    rate = np.sqrt(2.0) * max(potential.c, 0.3) / gap
    ramp = 0.5 * (1.0 + np.tanh(rate * eta))[:, None]
    U = a_minus[None, :] + (a_plus - a_minus)[None, :] * ramp
    project = _symmetric_projection(potential, a_minus, a_plus)
    if project is not None:
        U = fields.from_columns(project(fields.to_columns(U)))
    U[0], U[-1] = a_minus, a_plus

    U, res, _, _, _ = fields.newton_krylov(U, potential, h, tol, MAX_STEPS, project)
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
    dU = profile.derivative()[1:-1]
    kin = 0.5 * np.sum(dU * dU, axis=1)
    pot = profile.potential.value_field(profile.values[1:-1])
    return float(np.max(np.abs(kin - pot)))


def action(profile: ConnectionProfile) -> float:
    """``fields.discrete_energy`` of the profile, the action that
    ``solve_connection`` minimized; for a solved connection this is the
    interface energy sigma, with an O(h^2) error (-0.193 h^2 for the triple
    well)."""
    cols = fields.to_columns(profile.values)
    return float(fields.discrete_energy(cols, profile.h, profile.potential, grad=False)[0])


def hyperbolicity_gap(profile: ConnectionProfile) -> float | None:
    """Smallest eigenvalue of the Newton Hessian A = -Delta_h + W_uu(U) on
    the class U(-eta) = r U(eta) of ``_symmetric_projection``, which holds no
    translation mode; None for a pair without that symmetry, negative for a
    profile that is not a minimizer in the class.  A single-vector LOBPCG
    from the projection of a seeded normal vector: Rayleigh-Ritz on the
    iterate x, the projected preconditioned residual and the last step,
    until |A x - lambda x| <= GAP_TOL (|lambda| + 4 dim / h^2): |A| bounds
    the stencil's rounding floor, so fine grids and a gap near 0 converge
    (ConnectionError after GAP_MAX_ITER steps).  The vectors are (m, nodes)
    component columns, as in the Newton loop.  Ritz vectors combine these
    class vectors S, with coefficients from an SVD of S: an orthonormal
    basis computed outright (QR, or the SVD's own) carries rounding out of
    the class, and its Ritz values sink below the class's."""
    project = _symmetric_projection(profile.potential, profile.a_minus, profile.a_plus)
    if project is None:
        return None
    U, h, pot = fields.to_columns(profile.values), profile.h, profile.potential
    hess = fields._hessian_product(U, pot, h)
    precond = fields._dirichlet_inverse(U.shape, h, 2.0 * pot.c**2)
    x = project(np.random.default_rng(0).standard_normal(profile.values.shape).T)  # the draws of the (nodes, m) layout
    x[:, 0] = x[:, -1] = 0.0
    Ax, step = hess(x), []  # no step before the first
    for _ in range(GAP_MAX_ITER):
        norm = np.linalg.norm(x)
        x, Ax = x / norm, Ax / norm
        lam = np.vdot(x, Ax)
        r = Ax - lam * x
        if np.linalg.norm(r) <= GAP_TOL * (abs(lam) + 4.0 * (U.ndim - 1) / h**2):
            return float(lam)
        dirs = [v / np.linalg.norm(v) for v in [project(precond(r))] + step]
        S = np.stack([v.ravel() for v in [x] + dirs], axis=1)
        AS = np.stack([Ax.ravel()] + [hess(v).ravel() for v in dirs], axis=1)
        _, s, Vt = np.linalg.svd(S, full_matrices=False)
        kept = s > GAP_RANK_TOL * s[0]
        C = Vt[kept].T / s[kept]  # S @ C is orthonormal
        T = C.T @ (S.T @ AS) @ C
        y = C @ np.linalg.eigh(0.5 * (T + T.T))[1][:, 0]
        step = [project((S[:, 1:] @ y[1:]).reshape(U.shape))]
        x, Ax = project((S @ y).reshape(U.shape)), project((AS @ y).reshape(U.shape))
    raise ConnectionError(f"hyperbolicity gap not converged in {GAP_MAX_ITER} steps")


def tail_decay_rate(profile: ConnectionProfile):
    """Least-squares fit of log|U - a_plus| on the right tail.

    Returns (K, k) with |U - a_plus| ~ K exp(-k eta); the window keeps
    samples with deviation in [1e-10, 1e-1]."""
    dev = np.linalg.norm(profile.values - profile.a_plus[None, :], axis=1)
    half = len(dev) // 2
    sel = (dev[half:] >= 1e-10) & (dev[half:] <= 1e-1)
    if np.count_nonzero(sel) < 4:
        raise ConnectionError("tail window too small for a decay fit")
    x = profile.eta[half:][sel]
    y = np.log(dev[half:][sel])
    slope, intercept = np.polyfit(x, y, 1)
    return float(np.exp(intercept)), float(-slope)


def save_profile(profile: ConnectionProfile, csv_path):
    header = ["eta"] + [f"U{i + 1}" for i in range(profile.m)]
    fields.write_csv(csv_path, header, np.column_stack([profile.eta, profile.values]))
