"""Sampled vector fields on origin-centered box grids and the energy-descent solver.

The one discrete free energy, ``discrete_energy``, is a gradient quadrature
over forward-difference links plus the trapezoid rule for the potential
term, so at interior nodes its first-order condition is exactly the
3/5/7-point collocation of Delta u = W_u(u).  ``newton_krylov`` descends it,
for ``minimize`` and for the 1D connections of :mod:`multiwell.connect`, by
damped Newton steps whose Hessian systems -Delta_h + W_uu are solved by
truncated conjugate gradients, preconditioned by the exact inverse of
-Delta_h + 2c^2 (a type-I sine transform); an energy backtracking line
search keeps every accepted step descending.

Symmetry actions enter only through their projection.  Per element, a
box-preserving g_x maps nodes to nodes, so u(g_x x) is read as a node image
(a flipped, transposed view of the stored values); only an element that
rotates the grid is interpolated.  An action that permutes grid nodes
leaves the discrete energy exactly invariant, so the iterates keep the
equivariance of their start to rounding: the start is projected once before
the first step and once after the last.  An action that rotates the grid is
never projected.  The discrete critical point is equivariant only up to the
O(h^2) error of the square-grid stencil, which ``minimize`` reports as the
equivariance defect after the solve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, replace
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


def discrete_energy(values: np.ndarray, h: float, potential, grad: bool = True):
    """Free energy of a node-sampled (..., m) array with spacing h: links for
    |grad u|^2 / 2, trapezoid weights for W(u).  Returns (energy, W_u) with
    W_u(u) shaped like ``values`` from the same fused potential call, or None
    when ``grad`` is false."""
    m = values.shape[-1]
    if m != potential.m:
        raise ValueError("field value dimension does not match potential")
    grad_part = kernels.link_energy(values, h)
    flat = values.reshape(-1, m)
    if grad:
        W, W_u = potential.value_and_grad_field(flat)
        W_u = W_u.reshape(values.shape)
    else:
        W, W_u = potential.value_field(flat), None
    w = kernels.trapezoid_weights(values.shape[:-1]).ravel()
    return grad_part + float(w @ W) * h ** (values.ndim - 1), W_u


def energy(field: VectorField, potential) -> float:
    """Free energy of a field: integral of |grad u|^2 / 2 + W(u) over the box."""
    return discrete_energy(field.values, field.grid.spacing, potential, grad=False)[0]


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


def _is_identity(gx: np.ndarray, gu: np.ndarray) -> bool:
    return np.array_equal(gx, np.eye(gx.shape[0])) and np.array_equal(gu, np.eye(gu.shape[0]))


def _node_image(values: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """u(g_x x) at every node for a box-preserving g_x, as a view of the
    (grid.shape + (m,)) array ``values``.  A signed permutation,
    (g_x x)_a = s_a x_src[a], maps the nodes of an origin-centred grid with
    the same odd point count on every axis onto themselves: flip the axes
    with s_a < 0, then read axis src[a] as axis a."""
    P = np.rint(gx)
    src = np.abs(P).argmax(axis=1)
    sign = P[np.arange(src.size), src]
    flipped = np.flip(values, axis=tuple(np.flatnonzero(sign < 0)))
    return np.transpose(flipped, tuple(np.argsort(src)) + (values.ndim - 1,))


def symmetrize_pairs(field: VectorField, pairs) -> VectorField:
    """Project a sampled field onto the equivariant class of the action pairs:
    the average of g_u^{-1} u(g_x x) over all pairs.

    A box-preserving g_x maps nodes to nodes, so u(g_x x) is read off the
    stored values (``_node_image``); only an element that rotates the grid
    is interpolated.  Orthogonal maps preserve the 2-norm, so on the
    inscribed ball every sample g_x x stays inside the box and the average
    is the exact projection (up to interpolation error).  Signed-permutation
    actions preserve the whole box and are averaged everywhere, from node
    images alone; otherwise the projection is blended back into the input
    over a thin shell at the ball edge and the corner region keeps the input
    values."""
    g = field.grid
    pts = g.nodes
    R = g.half_width
    acc = np.zeros((pts.shape[0], field.m))
    for gx, gu in pairs:
        if _is_identity(gx, gu):
            acc += field.flat()
        elif _box_preserving(gx):
            acc += _node_image(field.values, gx).reshape(-1, field.m) @ gu
        else:
            acc += kernels.interp(field.values, pts @ gx.T, -R, g.spacing) @ gu
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
    if all(_box_preserving(gx) for gx, _ in pairs):
        sel = slice(None)
    else:
        sel = np.linalg.norm(g.nodes, axis=1) <= SYM_MEASURE_FRAC * g.half_width + BOX_EDGE_TOL
    return _equivariance_defect(field.values, g, pairs, sel)


def _equivariance_defect(values: np.ndarray, grid: Grid, pairs, sel) -> float:
    """max over the pairs and the nodes ``sel`` (a mask or slice of the flat
    nodes) picks of |u(g x) - g u(x)|: node images for box-preserving
    elements, interpolation at the picked nodes only for the others; the
    identity pair, which compares u(x) with itself, is skipped."""
    m = values.shape[-1]
    flat = values.reshape(-1, m)[sel]
    pts = None
    worst = 0.0
    for gx, gu in pairs:
        if _is_identity(gx, gu):
            continue
        if _box_preserving(gx):
            lhs = _node_image(values, gx).reshape(-1, m)[sel]
        else:
            pts = grid.nodes[sel] if pts is None else pts
            lhs = kernels.interp(values, pts @ gx.T, -grid.half_width, grid.spacing)
        diff = np.sqrt(np.sum((lhs - flat @ gu.T) ** 2, axis=1))
        worst = max(worst, float(diff.max()))
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

    sym_profile = replace(profile, values=region_map.symmetrized_profile_values(profile, adj))
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
        pvals[q] = sym_profile.sample(d) @ rep.T
        exponents[:, q] = (deficits[:, i] ** 2 + deficits[:, j] ** 2) / scale**2
    exponents -= exponents.min(axis=1)[:, None]
    w = np.exp(-exponents)
    out = np.einsum("pq,qpm->pm", w, pvals) / w.sum(axis=1)[:, None]
    return VectorField(grid, out.reshape(grid.shape + (m,)))


# ---------------------------------------------------------------------------
# Solver


@dataclass
class SolveOptions:
    """Options of ``minimize``: at most ``max_iter`` Newton steps, stopping
    once the interior residual is at most ``residual_target``.  The
    boundary layer of the start field is held fixed.

    ``k_sym`` and ``check_every`` configured the explicit descent that
    ``minimize`` no longer has.  They are validated (a value below 1 raises
    ValueError on construction) and otherwise unused, and stay only until
    the benchmark's workloads stop passing them; the CLI rejects both."""

    max_iter: int = 200_000
    residual_target: float = 1e-3
    k_sym: int = 10
    check_every: int = 25

    def __post_init__(self):
        if self.k_sym < 1 or self.check_every < 1:
            raise ValueError("k_sym and check_every must be >= 1")


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
    method: str = "newton"  # the one solve path; reports name it
    stop_reason: str = "converged"  # converged | max_iter | line_search


def _apply_boundary(values: np.ndarray, bvals: np.ndarray, bmask_flat: np.ndarray):
    m = values.shape[-1]
    v = values.reshape(-1, m)
    v[bmask_flat] = bvals.reshape(-1, m)[bmask_flat]


CG_MAX_ITER = 200
BOUNDARY_EQUIVARIANCE_TOL = 1e-6
LINE_SEARCH_HALVINGS = 40


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
    pass, the preconditioned b) is a descent direction of the energy.  The
    iterates are updated in place with the spent A d as scratch, so beyond
    the Hessian product and the preconditioner an iteration allocates
    nothing."""
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
        r -= np.multiply(Ad, alpha, out=Ad)
        p += np.multiply(d, alpha, out=Ad)
        if np.linalg.norm(r) <= tol:
            break
        z = precond(r)
        rz, rz_old = np.vdot(r, z), rz
        d *= rz / rz_old
        d += z
    return p


def newton_krylov(state, potential, h: float, target: float, max_iter: int, project=None):
    """Descend ``discrete_energy`` over the interior nodes of a node-sampled
    (..., m) array, boundary layer frozen, by the Newton steps of the module
    docstring until the residual (sup over interior nodes of |Delta_h u -
    W_u|) is at most ``target``, for at most ``max_iter`` steps.  A linear
    ``project`` that the Hessian commutes with follows the preconditioner,
    so every direction stays in its class.  A NaN energy raises SolveError.

    Returns (values, W_u, residual, steps, energy history, stop reason); the
    reason, "max_iter" or "line_search", matters only above ``target``."""
    # (E, w_u) always belong to the current state: an accepted trial brings its own
    E, w_u = discrete_energy(state, h, potential)
    history = [E]
    shift_inverse = _dirichlet_inverse(state.shape, h, 2.0 * potential.c**2)
    precond = shift_inverse if project is None else (lambda r: project(shift_inverse(r)))
    inner = (slice(1, -1),) * (state.ndim - 1)
    it, stop = 0, "max_iter"
    while True:
        b = kernels.laplacian(state, h)  # zero on the boundary layer
        b[inner] -= w_u[inner]
        res = float(np.sqrt(np.sum(b * b, axis=-1)).max())
        if res <= target or it >= max_iter:
            break
        # inexact Newton: solve to a relative tolerance that tightens with the residual
        tol = min(0.1, np.sqrt(res)) * np.linalg.norm(b)
        p = _truncated_cg(b, _hessian_product(state, potential, h), precond, tol)
        t = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            trial = state + t * p
            E_trial, w_trial = discrete_energy(trial, h, potential)
            if np.isnan(E_trial):
                raise SolveError("energy became NaN during descent")
            if E_trial <= E + 1e-12:
                break
            t *= 0.5
        else:
            stop = "line_search"
            break
        state, E, w_u = trial, E_trial, w_trial
        it += 1
        history.append(E)
    return state, w_u, res, it, history, stop


def minimize(field: VectorField, potential, symmetry=None, opts: SolveOptions | None = None) -> SolveResult:
    """Descend the discrete free energy to a stationary equivariant field.

    Boundary nodes keep their values in ``field``; interior nodes move by
    ``newton_krylov``, up to ``max_iter`` steps.  When no step length keeps
    the energy from rising the solve stops with
    ``stop_reason="line_search"``; a NaN energy raises SolveError.

    An action that permutes grid nodes is projected out once before the
    steps start, since they keep equivariance but do not restore it, and
    once after they end, to clear rounding.  Its projection maps boundary
    nodes to boundary nodes, so boundary values that are not equivariant
    raise ValueError: the projection would reset them and the solve could
    not converge.  An action that rotates the grid is only measured, before
    and after: its projection interpolates the rotating elements, and the
    discrete critical point is equivariant only up to the O(h^2) error of
    the square-grid stencil.
    """
    opts = opts or SolveOptions()
    g = field.grid
    h = g.spacing
    pairs = as_pairs(symmetry)
    bmask = ~g.interior_mask
    state = field.values.copy()

    eq_before = equivariance_residual_pairs(VectorField(g, state), pairs) if pairs else None

    def project(vals):
        out = symmetrize_pairs(VectorField(g, vals), pairs).values
        _apply_boundary(out, field.values, bmask)
        return out

    node_permuting = bool(pairs) and all(_box_preserving(gx) for gx, _ in pairs)
    if node_permuting:
        edge_res = _equivariance_defect(state, g, pairs, bmask)
        if edge_res > BOUNDARY_EQUIVARIANCE_TOL:
            raise ValueError(f"boundary values are not equivariant (boundary residual {edge_res:.3e})")
        state = project(state)

    state, w_u, res, it, history, stop = newton_krylov(state, potential, h, opts.residual_target, opts.max_iter)

    if node_permuting and it:
        # the invariant energy kept the iterates equivariant to rounding
        state = project(state)
        E, w_u = discrete_energy(state, h, potential)
        history.append(E)
        res = _residual(state, w_u, g)
    converged = res <= opts.residual_target

    out = VectorField(g, state)
    return SolveResult(
        field=out,
        iterations=it,
        energy=history[-1],
        residual=res,
        converged=converged,
        energy_history=history,
        equivariance_before=eq_before,
        equivariance_after=equivariance_residual_pairs(out, pairs) if pairs else None,
        stop_reason="converged" if converged else stop,
    )


def solve_dirichlet(field0: VectorField, potential, boundary_data, opts: SolveOptions | None = None, symmetry=None) -> SolveResult:
    """Clamped-boundary solve of Delta u = W_u(u) with the boundary held at
    ``boundary_data`` (full-shape array or callable on node coordinates):
    the data are written onto the boundary layer of a copy of ``field0``,
    which ``minimize`` then holds fixed.

    The data must be equivariant under the supplied symmetry action (the
    default is the first-coordinate reflection pair); ``minimize`` raises
    ValueError when its boundary values are not."""
    g = field0.grid
    if callable(boundary_data):
        boundary_data = boundary_data(g.nodes)
    bv = np.asarray(boundary_data, dtype=np.float64).reshape(field0.values.shape)
    start = field0.values.copy()
    _apply_boundary(start, bv, ~g.interior_mask)
    if symmetry is None:
        symmetry = reflection_pairs(g.dim, field0.m)
    return minimize(VectorField(g, start), potential, symmetry=symmetry, opts=opts)


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


def write_csv(path, header, table: np.ndarray):
    """A header line, then one line of %.17g cells (the strings of
    ``format(v, ".17g")``) per row of the 2D float table, formatted in one pass."""
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((row_fmt * table.shape[0]) % tuple(table.ravel().tolist()))


def save_field(field: VectorField, csv_path, meta_path, extra_meta: dict | None = None):
    g = field.grid
    header = [f"x{i + 1}" for i in range(g.dim)] + [f"u{i + 1}" for i in range(field.m)]
    write_csv(csv_path, header, np.hstack([g.nodes, field.flat()]))
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
