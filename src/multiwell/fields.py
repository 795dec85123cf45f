"""Sampled vector fields on origin-centered box grids and the energy-descent solver.

The discrete free energy is a gradient quadrature over forward-difference
links plus trapezoid weights for the potential term, so at interior nodes
its first-order condition is exactly the 3/5/7-point collocation of
Delta u = W_u(u).  ``minimize`` descends it along one of two paths:

- Newton: damped Newton steps whose Hessian systems -Delta_h + W_uu are
  solved by truncated conjugate gradients, preconditioned by the exact
  inverse of -Delta_h + 2c^2 (a type-I sine transform); an energy
  backtracking line search keeps every accepted step descending.  It runs
  when the symmetry action permutes grid nodes (or there is none) and the
  step rule is the default: the discrete energy is then exactly invariant,
  so the iterates keep the equivariance of their start to rounding.  The
  start is projected once before the first step and once after the last.
- Explicit: gradient descent with dt ~ h^2, so its step count grows like
  h^-2.  Node-permuting actions are projected every few steps; actions
  that rotate the grid act by interpolation, are monitored and re-projected
  only on drift.  Rotating actions stay here because a converged discrete
  critical point sits further from equivariance than the input does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.fft

from . import kernels

BOX_EDGE_TOL = 1e-9


class SolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-half_width, half_width]^dim.

    The point count is odd so the origin is a node and coordinate
    reflections map nodes to nodes."""

    dim: int
    half_width: float
    points: int

    def __post_init__(self):
        if self.points < 3 or self.points % 2 == 0:
            raise ValueError("points must be odd and >= 3 so the origin is a node")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2, or 3")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.dim

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.points)

    @cached_property
    def nodes(self) -> np.ndarray:
        """Flat (points^dim, dim) array of node coordinates, C order."""
        ax = self.axis()
        grids = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return np.ascontiguousarray(np.stack([g.ravel() for g in grids], axis=1))

    @cached_property
    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        inner = tuple(slice(1, -1) for _ in range(self.dim))
        mask[inner] = True
        return mask.ravel()

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        w = np.ones(self.points)
        w[0] = w[-1] = 0.5
        out = w
        for _ in range(self.dim - 1):
            out = np.multiply.outer(out, w)
        return out.ravel()


@dataclass
class VectorField:
    """Map from grid nodes to R^m, stored as an array of shape grid.shape + (m,)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        expected = self.grid.shape
        if self.values.shape[:-1] != expected:
            raise ValueError(f"values shape {self.values.shape} does not match grid {expected}")
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)

    @property
    def m(self) -> int:
        return self.values.shape[-1]

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1, self.m)

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.values.copy())

    def interp(self, pts: np.ndarray) -> np.ndarray:
        return kernels.interp(self.values, pts, -self.grid.half_width, self.grid.spacing)


def constant_field(grid: Grid, value) -> VectorField:
    value = np.atleast_1d(np.asarray(value, dtype=np.float64))
    vals = np.broadcast_to(value, grid.shape + value.shape).copy()
    return VectorField(grid, vals)


def field_from_function(grid: Grid, fn, m: int) -> VectorField:
    vals = np.asarray(fn(grid.nodes), dtype=np.float64).reshape(grid.shape + (m,))
    return VectorField(grid, vals.copy())


# ---------------------------------------------------------------------------
# Energy and residual


def energy(field: VectorField, potential) -> float:
    """Free energy: integral of |grad u|^2 / 2 + W(u) over the box.

    Forward differences per cell for the gradient part, trapezoid weights
    for the potential part.
    """
    if field.m != potential.m:
        raise ValueError("field value dimension does not match potential")
    g = field.grid
    h = g.spacing
    grad_part = kernels.link_energy(field.values, h)
    w_part = float(g.trapezoid_weights @ potential.value_field(field.flat())) * h**g.dim
    return grad_part + w_part


def energy_and_grad(field: VectorField, potential) -> tuple[float, np.ndarray]:
    """``energy`` and W_u(u) at every node (shaped like ``field.values``),
    from one fused potential evaluation."""
    if field.m != potential.m:
        raise ValueError("field value dimension does not match potential")
    g = field.grid
    h = g.spacing
    grad_part = kernels.link_energy(field.values, h)
    W, W_u = potential.value_and_grad_field(field.flat())
    w_part = float(g.trapezoid_weights @ W) * h**g.dim
    return grad_part + w_part, W_u.reshape(field.values.shape)


def pde_residual(field: VectorField, potential) -> float:
    """Sup norm over interior nodes of Delta_h u - W_u(u)."""
    w_u = potential.grad_field(field.flat()).reshape(field.values.shape)
    return _residual(field.values, w_u, field.grid)


def _residual(values: np.ndarray, w_u: np.ndarray, grid: Grid) -> float:
    r = (kernels.laplacian(values, grid.spacing) - w_u).reshape(-1, values.shape[-1])
    mags = np.sqrt(np.sum(r * r, axis=1))
    return float(mags[grid.interior_mask].max())


# ---------------------------------------------------------------------------
# Symmetrization.  A symmetry action is a list of (g_x, g_u) orthogonal
# matrix pairs; a ReflectionGroup supplies the diagonal action g_x = g_u.


def as_pairs(symmetry) -> list | None:
    if symmetry is None:
        return None
    if isinstance(symmetry, (list, tuple)):
        return [(np.asarray(a, float), np.asarray(b, float)) for a, b in symmetry]
    return [(g, g) for g in symmetry.elements]  # duck-typed ReflectionGroup


def reflection_pairs(n: int, m: int, x_axis: int = 0, u_axis: int = 0) -> list:
    """The two-element action u(Tx) = T u(x): coordinate sign flips."""
    gx = np.eye(n)
    gx[x_axis, x_axis] = -1.0
    gu = np.eye(m)
    gu[u_axis, u_axis] = -1.0
    return [(np.eye(n), np.eye(m)), (gx, gu)]


SYM_RAMP_FRAC = 0.05  # blend shell width (fraction of the half-width)
SYM_MEASURE_FRAC = 0.9  # residuals are measured on this fraction of the ball


def _box_preserving(mat: np.ndarray) -> bool:
    a = np.abs(mat)
    return bool(np.all((a < 1e-12) | (np.abs(a - 1.0) < 1e-12)))


def symmetrize_pairs(field: VectorField, pairs) -> VectorField:
    """Project a sampled field onto the equivariant class of the action pairs:
    the average of g_u^{-1} u(g_x x) over all pairs.

    Orthogonal maps preserve the 2-norm, so on the inscribed ball every
    sample g_x x stays inside the box and the average is the exact
    projection (up to interpolation error).  Signed-permutation actions
    preserve the whole box and are averaged everywhere; otherwise the
    projection is blended back into the input over a thin shell at the ball
    edge and the corner region keeps the input values."""
    g = field.grid
    pts = g.nodes
    R = g.half_width
    acc = np.zeros((pts.shape[0], field.m))
    for gx, gu in pairs:
        vals = kernels.interp(field.values, pts @ gx.T, -R, g.spacing)
        acc += vals @ gu
    acc /= len(pairs)
    if not all(_box_preserving(gx) for gx, _ in pairs):
        r = np.linalg.norm(pts, axis=1)
        chi = np.clip((R - r) / (SYM_RAMP_FRAC * R), 0.0, 1.0)[:, None]
        acc = chi * acc + (1.0 - chi) * field.flat()
    return VectorField(g, acc.reshape(field.values.shape))


def equivariance_residual_pairs(field: VectorField, pairs) -> float:
    """max over pairs and measurement-ball nodes of |u(g x) - g u(x)|.

    For box-preserving actions the measurement covers the whole box;
    otherwise it is restricted to the inner ball where the projection is
    exact (every compared sample stays inside the sampled domain)."""
    g = field.grid
    pts = g.nodes
    R = g.half_width
    if all(_box_preserving(gx) for gx, _ in pairs):
        sel = np.ones(pts.shape[0], dtype=bool)
    else:
        r = np.linalg.norm(pts, axis=1)
        sel = r <= SYM_MEASURE_FRAC * R + BOX_EDGE_TOL
    flat = field.flat()
    worst = 0.0
    for gx, gu in pairs:
        lhs = kernels.interp(field.values, pts @ gx.T, -R, g.spacing)
        rhs = flat @ gu.T
        diff = np.sqrt(np.sum((lhs - rhs) ** 2, axis=1))
        worst = max(worst, float(diff[sel].max()))
    return worst


# ---------------------------------------------------------------------------
# Initial data: well-per-region map mollified by a 1D connection profile.


def initial_guess(group, region_map, profile, grid: Grid) -> VectorField:
    """Equivariant initial data: g a1 deep in each region copy, blended across
    region walls by the 1D connection applied to the signed wall distance.

    Within a region the two nearest walls compete; their profile values are
    blended on the interface-width scale so the construction is continuous
    across the medial set (up to the measure-zero junction core for orbits
    of four or more wells)."""
    if group is not region_map.group:
        if group.order != region_map.group.order:
            raise ValueError("group does not match region map")
    wells = region_map.wells
    base = wells[0]
    a_minus = np.asarray(profile.a_minus, dtype=np.float64)
    a_plus = np.asarray(profile.a_plus, dtype=np.float64)
    if np.linalg.norm(a_plus - base) > 1e-6:
        if np.linalg.norm(a_minus - base) <= 1e-6:
            profile = profile.reversed()
            a_minus, a_plus = profile.a_minus, profile.a_plus
        else:
            raise ValueError("profile endpoints do not include the base well")
    adj = region_map.well_index(profile.a_minus)

    sym_vals = region_map.symmetrized_profile_values(profile, adj)
    eta = profile.eta
    pts = grid.nodes
    N = wells.shape[0]
    m = wells.shape[1]
    dots = pts @ wells.T
    deficits = dots.max(axis=1)[:, None] - dots  # 0 for the locally dominant well

    # one transported profile per reflection-related well pair; both
    # orientations give the same function, so unordered pairs suffice
    pairs = []
    for i in range(N):
        for j in range(i + 1, N):
            try:
                rep = region_map.pair_rep(i, j, adj)
            except ValueError:
                continue
            pairs.append((i, j, rep))
    if not pairs:
        raise ValueError("no well pair is related to the profile endpoints by the group")

    width = 1.0 / (np.sqrt(2.0) * max(getattr(profile.potential, "c", 1.0), 0.3))
    exponents = np.empty((pts.shape[0], len(pairs)))
    pvals = np.empty((len(pairs), pts.shape[0], m))
    for q, (i, j, rep) in enumerate(pairs):
        dwell = wells[i] - wells[j]
        scale = width * np.linalg.norm(dwell)
        d = (pts @ dwell) / np.linalg.norm(dwell)
        pvals[q] = _sample_profile(eta, sym_vals, d) @ rep.T
        exponents[:, q] = (deficits[:, i] ** 2 + deficits[:, j] ** 2) / scale**2
    exponents -= exponents.min(axis=1)[:, None]
    w = np.exp(-exponents)
    out = np.einsum("pq,qpm->pm", w, pvals) / w.sum(axis=1)[:, None]
    return VectorField(grid, out.reshape(grid.shape + (m,)))


def _sample_profile(eta, values, t):
    t = np.clip(t, eta[0], eta[-1])
    idx = np.clip(np.searchsorted(eta, t) - 1, 0, len(eta) - 2)
    frac = ((t - eta[idx]) / (eta[1] - eta[0]))[:, None]
    return values[idx] * (1 - frac) + values[idx + 1] * frac


# ---------------------------------------------------------------------------
# Solver


@dataclass
class SolveOptions:
    """Options of ``minimize``.  ``max_iter``, ``residual_target``, the
    boundary settings and ``max_input_equivariance`` apply to both paths;
    ``dt``, ``k_sym``, ``check_every`` and ``equivariance_budget`` govern
    only the explicit path.  ``step_rule="fixed"`` forces the explicit path.
    An unknown ``step_rule``, ``k_sym`` or ``check_every`` below 1, or a
    non-positive ``dt`` raises ValueError on construction."""

    dt: float | None = None  # default 0.9 h^2 / (2 dim)
    max_iter: int = 200_000
    residual_target: float = 1e-3
    k_sym: int = 10
    boundary_mode: str = "frozen"  # frozen | dirichlet | nearest_well
    boundary_values: np.ndarray | None = None
    step_rule: str = "backtracking"  # backtracking | fixed
    check_every: int = 25
    max_input_equivariance: float | None = None
    # node-permuting actions are projected every k_sym steps (exact, free);
    # interpolating actions would re-inject an O(h^2) smooth perturbation
    # whose Laplacian never vanishes, so they are monitored instead and
    # projected only when the drift exceeds this multiple of the input's
    # equivariance residual
    equivariance_budget: float = 2.0

    def __post_init__(self):
        if self.step_rule not in ("backtracking", "fixed"):
            raise ValueError(f"step_rule must be 'backtracking' or 'fixed', not {self.step_rule!r}")
        if self.k_sym < 1 or self.check_every < 1:
            raise ValueError("k_sym and check_every must be >= 1")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")

    def step_size(self, grid: Grid) -> float:
        """The explicit path's initial dt on ``grid``.  A fixed step above the
        diffusion stability bound h^2/(2 dim) is a ValueError."""
        h, n = grid.spacing, grid.dim
        if self.dt is None:
            return 0.9 * h * h / (2 * n)
        if self.step_rule == "fixed" and self.dt > h * h / (2 * n) + 1e-15:
            raise ValueError("fixed-step dt exceeds the diffusion stability bound h^2/(2 dim)")
        return float(self.dt)


@dataclass
class SolveResult:
    field: VectorField
    iterations: int
    energy: float
    residual: float
    converged: bool
    energy_history: list = dc_field(default_factory=list)
    equivariance_before: float | None = None
    equivariance_after: float | None = None
    symmetrization_drift: float = 0.0
    dt_final: float = 0.0
    method: str = "explicit"  # newton | explicit: the path the routing chose
    stop_reason: str = "converged"  # converged | max_iter | line_search


def _boundary_mask(grid: Grid) -> np.ndarray:
    return ~grid.interior_mask


def _resolve_boundary(field: VectorField, potential, opts: SolveOptions) -> np.ndarray:
    if opts.boundary_mode == "frozen":
        return field.values.copy()
    if opts.boundary_mode == "dirichlet":
        if opts.boundary_values is None:
            raise ValueError("dirichlet mode requires boundary_values")
        bv = np.asarray(opts.boundary_values, dtype=np.float64)
        if bv.shape != field.values.shape:
            raise ValueError("boundary_values shape mismatch")
        return bv.copy()
    if opts.boundary_mode == "nearest_well":
        flat = field.flat()
        wells = potential.wells
        if wells.shape[0] == 0:
            raise ValueError("nearest_well boundary needs a potential with wells")
        d = np.linalg.norm(flat[:, None, :] - wells[None, :, :], axis=2)
        vals = wells[np.argmin(d, axis=1)]
        return vals.reshape(field.values.shape)
    raise ValueError(f"unknown boundary mode {opts.boundary_mode!r}")


def _apply_boundary(values: np.ndarray, bvals: np.ndarray, bmask_flat: np.ndarray):
    m = values.shape[-1]
    v = values.reshape(-1, m)
    v[bmask_flat] = bvals.reshape(-1, m)[bmask_flat]


CG_MAX_ITER = 200
LINE_SEARCH_HALVINGS = 40


def _backtrack(state, direction, t, E, evaluate, halvings=LINE_SEARCH_HALVINGS):
    """The first of the steps t, t/2, ... (``halvings`` tries) along
    ``direction`` that does not raise the energy above E: (trial, energy,
    W_u at the trial, t), or None when every try does.  ``evaluate`` returns
    (energy, W_u) of a state.  A NaN energy raises SolveError."""
    for _ in range(halvings):
        trial = state + t * direction
        E_new, w_u = evaluate(trial)
        if np.isnan(E_new):
            raise SolveError("energy became NaN during descent")
        if E_new <= E + 1e-12:
            return trial, E_new, w_u, t
        t *= 0.5
    return None


def _dirichlet_inverse(shape: tuple, h: float, shift: float):
    """Exact inverse of -Delta_h + shift on the interior nodes with zero
    boundary values, per component: the type-I sine transform diagonalizes
    the Dirichlet stencil along every axis."""
    dim = len(shape) - 1
    inner = (slice(1, -1),) * dim
    axes = tuple(range(dim))
    eig = np.full((1,) * (dim + 1), float(shift))
    for a in axes:
        k = np.arange(1, shape[a] - 1)
        lam = (2.0 / h * np.sin(0.5 * np.pi * k / (shape[a] - 1))) ** 2
        eig = eig + lam.reshape([-1 if b == a else 1 for b in range(dim + 1)])

    def apply(r):
        out = np.zeros_like(r)
        out[inner] = scipy.fft.idstn(scipy.fft.dstn(r[inner], type=1, axes=axes) / eig, type=1, axes=axes)
        return out

    return apply


def _hessian_product(state: np.ndarray, potential, h: float):
    """v -> (-Delta_h + W_uu(u)) v for v vanishing on the boundary layer: the
    Hessian of the discrete energy over interior nodes, divided by h^dim."""
    m = state.shape[-1]
    H = potential.hess_field(state)

    def apply(v):
        out = np.einsum("nij,nj->ni", H, v.reshape(-1, m)).reshape(v.shape)
        out -= kernels.laplacian(v, h)
        return out

    return apply


def _truncated_cg(b, hess_product, precond, tol: float):
    """Preconditioned CG for A p = b, stopped at |r| <= tol or at the first
    direction of non-positive curvature.  Every returned p (on that first
    pass, the preconditioned b) is a descent direction of the energy."""
    p = np.zeros_like(b)
    r = b.copy()
    d = precond(r)
    rz = np.vdot(r, d)
    for i in range(CG_MAX_ITER):
        Ad = hess_product(d)
        dAd = np.vdot(d, Ad)
        if dAd <= 0.0:
            return p if i else d
        alpha = rz / dAd
        p += alpha * d
        r -= alpha * Ad
        if np.linalg.norm(r) <= tol:
            break
        z = precond(r)
        rz, rz_old = np.vdot(r, z), rz
        d = z + (rz / rz_old) * d
    return p


def _newton_descent(state, E, w_u, potential, grid: Grid, history, target, max_steps, evaluate):
    """Damped Newton-Krylov descent over the interior nodes from ``state``
    with energy E and potential gradient ``w_u``; the boundary layer stays
    fixed.  Each accepted energy is appended to ``history``.  Returns
    (state, energy, steps, residual, stop) with stop one of
    "converged", "max_iter" (``max_steps`` taken) or "line_search"."""
    h = grid.spacing
    edge = ~grid.interior_mask.reshape(grid.shape)
    precond = _dirichlet_inverse(state.shape, h, 2.0 * potential.c**2)
    steps = 0
    while True:
        b = kernels.laplacian(state, h) - w_u
        b[edge] = 0.0
        res = float(np.sqrt(np.sum(b * b, axis=-1)).max())
        if res <= target:
            return state, E, steps, res, "converged"
        if steps >= max_steps:
            return state, E, steps, res, "max_iter"
        # inexact Newton: solve to a relative tolerance that tightens with the residual
        tol = min(0.1, np.sqrt(res)) * np.linalg.norm(b)
        p = _truncated_cg(b, _hessian_product(state, potential, h), precond, tol)
        taken = _backtrack(state, p, 1.0, E, evaluate)
        if taken is None:
            return state, E, steps, res, "line_search"
        state, E, w_u, _ = taken
        steps += 1
        history.append(E)


def minimize(field: VectorField, potential, symmetry=None, opts: SolveOptions | None = None) -> SolveResult:
    """Descend the discrete free energy to a stationary equivariant field.

    Boundary nodes are handled per opts; interior nodes move.  With the
    default step rule and a node-permuting action (or none), the field is
    solved by damped Newton-Krylov steps (see the module docstring), up to
    ``max_iter`` of them.  The action is projected out once before they
    start, since the steps keep equivariance but do not restore it, and once
    after they end, to clear rounding.

    Otherwise (grid-rotating actions and ``step_rule="fixed"``) the field is
    solved by explicit gradient descent u <- u + dt (Delta_h u - W_u(u)).
    Node-permuting actions are projected onto the equivariant class every
    ``k_sym`` accepted steps; interpolating actions are monitored and
    re-projected on drift (see SolveOptions).  Energy is checked each step;
    with the backtracking rule an energy increase halves dt instead of
    aborting.  ``result.method`` names the path and ``result.stop_reason``
    why it stopped.
    """
    opts = opts or SolveOptions()
    g = field.grid
    h = g.spacing
    dt0 = opts.step_size(g)
    pairs = as_pairs(symmetry)
    bvals = _resolve_boundary(field, potential, opts)
    bmask = _boundary_mask(g)

    state = field.values.copy()
    _apply_boundary(state, bvals, bmask)

    eq_before = equivariance_residual_pairs(VectorField(g, state), pairs) if pairs else None
    if pairs and opts.max_input_equivariance is not None and eq_before > opts.max_input_equivariance:
        raise SolveError(
            f"initial field equivariance residual {eq_before:.3e} exceeds "
            f"allowed {opts.max_input_equivariance:.3e}"
        )

    def evaluate(vals):
        return energy_and_grad(VectorField(g, vals), potential)

    def project(vals):
        out = symmetrize_pairs(VectorField(g, vals), pairs).values
        _apply_boundary(out, bvals, bmask)
        return out

    exact_action = bool(pairs) and all(_box_preserving(gx) for gx, _ in pairs)
    newton = opts.step_rule == "backtracking" and (exact_action or not pairs)
    if newton and pairs:
        state = project(state)

    # (E, w_u) always belong to the current state: an accepted trial brings its
    # own, and a projection re-evaluates them
    E, w_u = evaluate(state)
    history = [E]
    drift = 0.0
    dt = dt0
    stop = None

    if newton:
        # the Newton loop measures the residual of its start and of every step
        state, E, it, res, stop = _newton_descent(
            state, E, w_u, potential, g, history, opts.residual_target, opts.max_iter, evaluate
        )
        if pairs and it:
            # the invariant energy kept the iterates equivariant to rounding
            state = project(state)
            E_sym, w_u = evaluate(state)
            drift = abs(E_sym - E)
            E = E_sym
            history.append(E)
            res = _residual(state, w_u, g)
        converged = res <= opts.residual_target
    else:
        res = _residual(state, w_u, g)
        converged = res <= opts.residual_target
        it = 0
        interior = g.interior_mask.reshape(g.shape)
        accepted = 0
        steps_since_sym = opts.k_sym
        pending_check = False
        eq_budget = opts.equivariance_budget * max(eq_before or 0.0, 1e-12)
        while not converged and it < opts.max_iter:
            it += 1
            step = kernels.laplacian(state, h) - w_u
            step[~interior] = 0.0

            if opts.step_rule == "fixed":
                taken = _backtrack(state, step, dt, E, evaluate, halvings=1)
                if taken is None:
                    raise SolveError("energy increased at an accepted step; reduce dt")
                state, E, w_u, _ = taken
            else:
                taken = _backtrack(state, step, dt, E, evaluate)
                if taken is None:
                    raise SolveError("backtracking failed to find a descending step")
                state, E, w_u, dt = taken
                if dt < dt0:
                    dt = min(dt * 1.05, dt0)
            accepted += 1
            steps_since_sym += 1
            history.append(E)

            if exact_action and accepted % opts.k_sym == 0:
                state = project(state)
                E_sym, w_u = evaluate(state)
                drift = max(drift, abs(E_sym - E))
                E = E_sym
                steps_since_sym = 0
                history.append(E)

            # residual checks read the raw descent state a few steps past the
            # last projection so projection noise has been re-smoothed
            if accepted % opts.check_every == 0:
                pending_check = True
            if pending_check and (not pairs or steps_since_sym >= min(3, opts.k_sym)):
                pending_check = False
                res = _residual(state, w_u, g)
                if pairs and not exact_action:
                    eq_now = equivariance_residual_pairs(VectorField(g, state), pairs)
                    if eq_now > eq_budget:
                        state = project(state)
                        E_sym, w_u = evaluate(state)
                        drift = max(drift, abs(E_sym - E))
                        E = E_sym
                        steps_since_sym = 0
                        continue
                if res <= opts.residual_target:
                    converged = True
        res = _residual(state, w_u, g)

    out = VectorField(g, state)
    return SolveResult(
        field=out,
        iterations=it,
        energy=E,
        residual=res,
        converged=converged,
        energy_history=history,
        equivariance_before=eq_before,
        equivariance_after=equivariance_residual_pairs(out, pairs) if pairs else None,
        symmetrization_drift=drift,
        dt_final=dt,
        method="newton" if newton else "explicit",
        stop_reason="converged" if converged else ("line_search" if stop == "line_search" else "max_iter"),
    )


def solve_dirichlet(field0: VectorField, potential, boundary_data, opts: SolveOptions | None = None, symmetry=None) -> SolveResult:
    """Clamped-boundary solve of Delta u = W_u(u) with the boundary held at
    ``boundary_data`` (full-shape array or callable on node coordinates).

    The data must be equivariant under the supplied symmetry action; the
    default action is the first-coordinate reflection pair."""
    g = field0.grid
    if callable(boundary_data):
        bv = np.asarray(boundary_data(g.nodes), dtype=np.float64).reshape(field0.values.shape)
    else:
        bv = np.asarray(boundary_data, dtype=np.float64).reshape(field0.values.shape)
    if symmetry is None:
        symmetry = reflection_pairs(g.dim, field0.m)
    pairs = as_pairs(symmetry)
    data_res = equivariance_residual_pairs(VectorField(g, bv), pairs)
    if data_res > 1e-6:
        raise ValueError(f"boundary data is not equivariant (residual {data_res:.3e})")
    opts = opts or SolveOptions()
    opts = SolveOptions(**{**opts.__dict__, "boundary_mode": "dirichlet", "boundary_values": bv})
    return minimize(field0, potential, symmetry=pairs, opts=opts)


def positivity_violation(field: VectorField, wall_normals: np.ndarray) -> float:
    """Monitor u(F-bar) subset F-bar: for nodes x in the closed chamber,
    the worst negative wall coordinate of u(x) (0 when positivity holds)."""
    pts = field.grid.nodes
    in_chamber = np.all(pts @ wall_normals.T >= -1e-12, axis=1)
    if not np.any(in_chamber):
        return 0.0
    vals = field.flat()[in_chamber]
    dots = vals @ wall_normals.T
    return float(max(0.0, -dots.min()))


# ---------------------------------------------------------------------------
# CSV / JSON persistence (17 significant digits for byte-reproducible round trips)


def save_field(field: VectorField, csv_path, meta_path, extra_meta: dict | None = None):
    g = field.grid
    pts = g.nodes
    flat = field.flat()
    header = [f"x{i + 1}" for i in range(g.dim)] + [f"u{i + 1}" for i in range(field.m)]
    with open(csv_path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row_pt, row_u in zip(pts, flat):
            cells = [format(v, ".17g") for v in row_pt] + [format(v, ".17g") for v in row_u]
            fh.write(",".join(cells) + "\n")
    meta = {
        "dim": g.dim,
        "half_width": g.half_width,
        "points": g.points,
        "m": field.m,
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_field(csv_path, meta_path) -> VectorField:
    with open(meta_path) as fh:
        meta = json.load(fh)
    grid = Grid(dim=int(meta["dim"]), half_width=float(meta["half_width"]), points=int(meta["points"]))
    m = int(meta["m"])
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    vals = data[:, grid.dim : grid.dim + m].reshape(grid.shape + (m,))
    return VectorField(grid, vals.copy())
