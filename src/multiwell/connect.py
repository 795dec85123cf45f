"""1D heteroclinic connections between wells by discrete action minimization.

The profile U on [-L, L] (clamped ends) first descends the discrete action
with L-BFGS, then a damped Newton polish drives the collocation residual
U_{j+1} - 2 U_j + U_{j-1} = h^2 W_u(U_j) to tolerance.  The action of the
solved profile is the interface energy sigma fed to the sharp-interface
side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla


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


def _collocation_residual(U: np.ndarray, h: float, potential) -> np.ndarray:
    lap = (U[2:] - 2 * U[1:-1] + U[:-2]) / (h * h)
    return lap - potential.grad_field(U[1:-1])


def _newton_matrix(U: np.ndarray, h: float, potential) -> sp.csc_matrix:
    n_int = U.shape[0] - 2
    m = U.shape[1]
    H = potential.hess_field(U[1:-1])
    diag_blocks = -(2.0 / h**2) * np.eye(m)[None, :, :] - H
    base = np.arange(n_int) * m
    rows = np.broadcast_to(base[:, None, None] + np.arange(m)[None, :, None], (n_int, m, m)).ravel()
    cols = np.broadcast_to(base[:, None, None] + np.arange(m)[None, None, :], (n_int, m, m)).ravel()
    data = diag_blocks.ravel()
    off = np.arange((n_int - 1) * m)
    rows = np.concatenate([rows, off, off + m])
    cols = np.concatenate([cols, off + m, off])
    data = np.concatenate([data, np.full(2 * (n_int - 1) * m, 1.0 / h**2)])
    N = n_int * m
    return sp.coo_matrix((data, (rows, cols)), shape=(N, N)).tocsc()


def solve_connection(
    potential,
    a_minus,
    a_plus,
    half_length: float = 10.0,
    intervals: int = 2000,
    tol: float = 1e-8,
    max_newton: int = 60,
    lbfgs_iter: int = 500,
) -> ConnectionProfile:
    """Compute the heteroclinic connection between two wells.

    Parameters follow the discretization: nodes eta_j = -L + j h with
    h = 2L/intervals, endpoint values clamped to the wells.  Raises
    ConnectionError for identical endpoints; non-convergence is reported on
    the returned profile (converged flag and final residual)."""
    a_minus = np.atleast_1d(np.asarray(a_minus, dtype=np.float64))
    a_plus = np.atleast_1d(np.asarray(a_plus, dtype=np.float64))
    if np.linalg.norm(a_plus - a_minus) <= 1e-8:
        raise ConnectionError("endpoints coincide: no connection to compute")
    for a in (a_minus, a_plus):
        if abs(potential.value(a)) > 1e-8:
            raise ConnectionError("endpoint is not a zero of the potential")
    m = a_minus.shape[0]
    K = int(intervals)
    h = 2.0 * half_length / K
    eta = -half_length + h * np.arange(K + 1)

    gap = np.linalg.norm(a_plus - a_minus)
    rate = np.sqrt(2.0) * max(potential.c, 0.3) / gap
    ramp = 0.5 * (1.0 + np.tanh(rate * eta))[:, None]
    U = a_minus[None, :] + (a_plus - a_minus)[None, :] * ramp
    U[0] = a_minus
    U[-1] = a_plus

    w = np.ones(K + 1)
    w[0] = w[-1] = 0.5

    def action_and_grad(x):
        V = np.vstack([a_minus[None, :], x.reshape(K - 1, m), a_plus[None, :]])
        d = (V[1:] - V[:-1]) / h
        W, W_u = potential.value_and_grad_field(V)
        act = 0.5 * h * float(np.sum(d * d)) + h * float(w @ W)
        lap = (V[2:] - 2 * V[1:-1] + V[:-2]) / h**2
        grad = h * (-lap + W_u[1:-1])
        return act, grad.ravel()

    res = scipy.optimize.minimize(
        action_and_grad,
        U[1:-1].ravel(),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": lbfgs_iter, "gtol": 1e-8},
    )
    U[1:-1] = res.x.reshape(K - 1, m)

    # Newton polish on the collocation system
    r = _collocation_residual(U, h, potential)
    rnorm = float(np.max(np.abs(r)))
    for _ in range(max_newton):
        if rnorm <= tol:
            break
        J = _newton_matrix(U, h, potential)
        try:
            delta = spla.spsolve(J, -r.ravel()).reshape(K - 1, m)
        except RuntimeError:
            break
        lam = 1.0
        while lam > 1e-6:
            trial = U.copy()
            trial[1:-1] += lam * delta
            rt = _collocation_residual(trial, h, potential)
            rtn = float(np.max(np.abs(rt)))
            if rtn < rnorm:
                U, r, rnorm = trial, rt, rtn
                break
            lam *= 0.5
        else:
            break

    return ConnectionProfile(
        eta=eta,
        values=U,
        a_minus=a_minus,
        a_plus=a_plus,
        potential=potential,
        residual=rnorm,
        converged=bool(rnorm <= tol),
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
    w = np.ones(len(integrand))
    w[0] = w[-1] = 0.5
    return float(profile.h * (w @ integrand))


def _pair_reflection(profile: ConnectionProfile) -> np.ndarray:
    n = profile.a_plus - profile.a_minus
    norm = np.linalg.norm(n)
    if norm < 1e-12:  # degenerate (constant) profile: no wall to reflect across
        return np.eye(profile.m)
    n = n / norm
    return np.eye(profile.m) - 2.0 * np.outer(n, n)


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
    T = _pair_reflection(profile)
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
    with open(csv_path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t, row in zip(profile.eta, profile.values):
            cells = [format(t, ".17g")] + [format(v, ".17g") for v in row]
            fh.write(",".join(cells) + "\n")
