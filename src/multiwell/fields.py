"""Sampled vector fields on origin-centered box grids and the energy-descent solver.

The one discrete free energy, ``discrete_energy``, is a gradient quadrature
over forward-difference links plus the trapezoid rule for the potential
term, so at interior nodes its first-order condition is exactly the
3/5/7-point collocation of Delta u = W_u(u).  ``newton_krylov`` descends it,
for ``minimize`` and for the 1D connections of :mod:`multiwell.connect`, by
damped Newton steps whose Hessian systems -Delta_h + W_uu are solved by
truncated conjugate gradients, preconditioned by the exact inverse of
-Delta_h + 2c^2; an energy backtracking line search keeps every accepted
step descending.  That inverse is the type-I sine transform of
``kernels.sine_solve``, in numpy: a matrix product along short axes, an FFT
of the odd extension along long ones.  The residual is the gradient that
``discrete_energy`` returns with the energy, from one pass over the links:
the stencil in difference form, whose rounding floor is lower.

Symmetry actions enter only through their projection.  Per element, a
box-preserving g_x maps nodes to nodes, so u(g_x x) is read as a node image
(a flipped, transposed view of the stored values), and ``node_projection``
averages g_u^{-1} u(g_x x) over the action from node images alone: for the
fields, the connection class U(-eta) = r U(eta) and the initial guess's
profile alike.  An action that permutes grid nodes leaves the discrete
energy exactly invariant, so the iterates keep the equivariance of their
start to rounding: the start is projected once, before the first step.  The
action's odd axis mirrors (g_x flipping one axis a, g_u = -I) cut the box:
the steps run on x_a >= 0 with the face x_a = 0 held at zero, on 2^-k of
the nodes for k such axes, and the field unfolds by oddness.  An
action that rotates the grid has no node images and is never projected;
only its equivariance is measured, over a node set that every
box-preserving b maps onto itself: with g_x = r_x b_x, the
defect at x is that of u(r_x y) against g_u u(b_x^T y) at y = b_x x, so one
interpolation per coset r b (two for dihedral-3, dihedral-6 and the
tetrahedral group) and one gather per b serve every element.  ``minimize``
reports the equivariance defect after the solve: for dihedral-3 the O(h^2)
error of the square-grid stencil; for the tetrahedral junction also a box
term that does not fall with h (16 of its 24 elements do not map the cube
onto itself: 3.0e-2 at 33^3 and 3.1e-2 at 65^3, half-width 5).

Interleaved node values, grid.shape + (m,), exist only in ``VectorField``,
connection profiles and files; every kernel reads component-major
(m, *grid) arrays (``to_columns``, inverse ``from_columns``), each component
one contiguous block.  ``newton_krylov`` converts its state once on entry
and once on exit, the equivariance measurement its values once, and the
point API (``VectorField.interp``) in the wrapper.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property

import numpy as np

from . import groups, kernels
from .potentials import _integral, _number

BOX_EDGE_TOL = 1e-9
SYM_MEASURE_FRAC = 0.9  # residuals are measured on this fraction of the ball


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
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError("half_width must be positive and finite")
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2, or 3")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.dim

    def axis(self) -> np.ndarray:
        """The node coordinates of one axis, symmetric bit for bit: x[P-1-i]
        is -x[i], and -half_width, 0 and half_width are exact (``linspace``
        alone puts most coordinates off minus their mirror in the last bit)."""
        ax = np.linspace(-self.half_width, self.half_width, self.points)
        return 0.5 * (ax - ax[::-1])

    @cached_property
    def nodes(self) -> np.ndarray:
        """Flat (points^dim, dim) array of node coordinates, C order."""
        ax = self.axis()
        grids = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return np.ascontiguousarray(np.stack([g.ravel() for g in grids], axis=1))

    @cached_property
    def measure_ball(self) -> np.ndarray:
        """Flat indices of the nodes within ``SYM_MEASURE_FRAC`` of the
        half-width of the origin, where the equivariance of an action that
        rotates the grid is measured.  A node is picked by its integer
        offsets k from the centre node, |k| <= ``SYM_MEASURE_FRAC`` c with
        c = (points - 1) / 2, so every signed permutation maps the ball onto
        itself."""
        k = np.rint(self.nodes / self.spacing)
        c = SYM_MEASURE_FRAC * (self.points // 2)
        return np.flatnonzero((k * k).sum(axis=1) <= c * c + BOX_EDGE_TOL)

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
        return kernels.interp(to_columns(self.values), pts, -self.grid.half_width, self.grid.spacing)


def constant_field(grid: Grid, value) -> VectorField:
    value = np.atleast_1d(np.asarray(value, dtype=np.float64))
    vals = np.broadcast_to(value, grid.shape + value.shape).copy()
    return VectorField(grid, vals)


def field_from_function(grid: Grid, fn, m: int) -> VectorField:
    vals = np.asarray(fn(grid.nodes), dtype=np.float64).reshape(grid.shape + (m,))
    return VectorField(grid, vals.copy())


# ---------------------------------------------------------------------------
# Layouts, energy and residual


def to_columns(values: np.ndarray) -> np.ndarray:
    """Interleaved (..., m) node values as a C-contiguous component-major
    (m, ...) array: a copy, or a view of the input when that is already
    contiguous, as for m = 1."""
    return np.ascontiguousarray(np.moveaxis(values, -1, 0))


def from_columns(cols: np.ndarray) -> np.ndarray:
    """The inverse of ``to_columns``: a C-contiguous (..., m) array."""
    return np.ascontiguousarray(np.moveaxis(cols, 0, -1))


def discrete_energy(cols: np.ndarray, h: float, potential, grad: bool = True):
    """Free energy of a node-sampled component-major (m, ...) array with
    spacing h: links for |grad u|^2 / 2, trapezoid weights for W(u).
    Returns (energy, b), b = Delta_h u - W_u(u) shaped like ``cols`` at
    interior nodes and zero on the boundary layer: the energy's gradient
    times -1/h^dim.  The stencil comes from the links that the energy sums,
    and W and W_u from one potential call.  b is None when ``grad`` is false
    (then W comes from ``value_field`` of the transposed columns, a view, so
    that a traced ``energy`` shows its potential span)."""
    m = cols.shape[0]
    if m != potential.m:
        raise ValueError("field value dimension does not match potential")
    grad_part, b = kernels.link_energy(cols, h)
    flat = cols.reshape(m, -1)
    if grad:
        W, W_u = potential.value_and_grad_columns(flat)
        inner = (slice(None),) + (slice(1, -1),) * (cols.ndim - 1)
        b[inner] -= W_u.reshape(cols.shape)[inner]
    else:
        W, b = potential.value_field(flat.T), None
    w = kernels.trapezoid_weights(cols.shape[1:]).ravel()
    return grad_part + float(w @ W) * h ** (cols.ndim - 1), b


def energy(field: VectorField, potential) -> float:
    """Free energy of a field: integral of |grad u|^2 / 2 + W(u) over the box."""
    return discrete_energy(to_columns(field.values), field.grid.spacing, potential, grad=False)[0]


def pde_residual(field: VectorField, potential) -> float:
    """Sup norm over interior nodes of Delta_h u - W_u(u)."""
    return _sup_norm(discrete_energy(to_columns(field.values), field.grid.spacing, potential)[1])


def _sup_norm(cols: np.ndarray) -> float:
    """max over the nodes of |u| for a component-major (m, ...) array: the
    root of the largest in-order sum of squared components, the bits of the
    row sum of the interleaved squares."""
    sq = cols[0] ** 2
    for a in range(1, len(cols)):
        sq += cols[a] ** 2
    return float(np.sqrt(sq.max()))


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


def _box_preserving(mat: np.ndarray) -> bool:
    a = np.abs(mat)
    return bool(np.all((a < 1e-12) | (np.abs(a - 1.0) < 1e-12)))


def _is_identity(gx: np.ndarray, gu: np.ndarray) -> bool:
    return np.array_equal(gx, np.eye(gx.shape[0])) and np.array_equal(gu, np.eye(gu.shape[0]))


def _node_axes(gx: np.ndarray) -> tuple:
    """The node image under a box-preserving g_x, for component-major
    (m, *grid) arrays, as (index that flips axes, axis order).  A signed
    permutation, (g_x x)_a = s_a x_src[a], maps the nodes of an
    origin-centred grid onto themselves when every axis that it exchanges
    has the same point count: flip the axes with s_a < 0, then read axis
    src[a] as axis a."""
    P = np.rint(gx)
    src = np.abs(P).argmax(axis=1)
    sign = P[np.arange(src.size), src]
    flips = tuple(slice(None, None, -1 if s < 0 else 1) for s in sign)
    return (slice(None),) + flips, (0,) + tuple(np.argsort(src) + 1)


def _node_image(cols: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """u(g_x x) at every node for a box-preserving g_x, as a view of the
    component-major ((m,) + grid.shape) array ``cols``."""
    index, order = _node_axes(gx)
    return cols[index].transpose(order)


def _odd_mirror_axes(pairs) -> list:
    """The axes a of the action's odd axis mirrors, the pairs whose g_x flips
    axis a alone and whose g_u is -I, in increasing order.  A field of the
    class is odd in x_a, so it is zero on the face x_a = 0 and fixed by its
    values on x_a >= 0."""
    axes = set()
    for gx, gu in pairs:
        signed = np.rint(gx)
        d = np.diag(signed)
        odd = np.allclose(gu, -np.eye(len(gu)), rtol=0.0, atol=1e-12)
        if odd and np.array_equal(signed, np.diag(d)) and np.sum(d < 0) == 1:
            axes.add(int(np.argmin(d)))
    return sorted(axes)


def _unfold(values: np.ndarray, axes) -> np.ndarray:
    """The full-box array of a field odd in each of ``axes`` from its values
    on the half box x_a >= 0 of each: u(..., -x_a, ...) = -u(..., x_a, ...)."""
    for a in axes:
        n = values.shape[a]
        values = np.concatenate([-np.take(values, np.arange(n - 1, 0, -1), axis=a), values], axis=a)
    return values


def node_projection(pairs):
    """The projection of node arrays onto the equivariant class of the action
    pairs: cols -> the average over the pairs of g_u^{-1} u(g_x x), each
    u(g_x x) a node image, for component-major (m, ...) arrays on nodes
    symmetric about the origin (a ``Grid``, or a connection profile of any
    node count).  The pairs are checked once, here: a g_x that rotates the
    grid has no node image and raises ValueError.  The identity pair adds
    the values themselves, and the projection is a new array."""
    plan = []
    for gx, gu in pairs:
        if not _box_preserving(gx):
            raise ValueError("the action rotates the grid: only actions that permute the nodes are projected")
        plan.append(None if _is_identity(gx, gu) else _node_axes(gx) + (gu,))

    def project(cols: np.ndarray) -> np.ndarray:
        acc = np.zeros(cols.shape)
        for p in plan:
            # g_u^{-1} = g_u^T: component i of the image sums g_u[j, i] u_j
            acc += cols if p is None else np.tensordot(p[2], cols[p[0]].transpose(p[1]), axes=(0, 0))
        acc /= len(plan)
        return acc

    return project


def symmetrize_pairs(field: VectorField, pairs) -> VectorField:
    """``node_projection`` of a sampled field: exact for an action that
    permutes the grid nodes, ValueError for one that rotates the grid."""
    return VectorField(field.grid, from_columns(node_projection(pairs)(to_columns(field.values))))


def equivariance_residual_pairs(field: VectorField, pairs) -> float:
    """max over pairs and measurement-ball nodes of |u(g x) - g u(x)|.

    For box-preserving actions the measurement covers the whole box;
    otherwise it is restricted to the inner ball ``Grid.measure_ball``, where
    every compared sample g x stays inside the sampled domain and which every
    box-preserving element maps onto itself."""
    g = field.grid
    sel = slice(None) if all(_box_preserving(gx) for gx, _ in pairs) else g.measure_ball
    return _equivariance_defect(field.values, g, pairs, sel)


def _equivariance_defect(values: np.ndarray, grid: Grid, pairs, sel) -> float:
    """max over the pairs and the nodes S that ``sel`` (a slice, mask or index
    array of the flat nodes) picks of |u(g x) - g u(x)|, the identity pair
    skipped.  Every box-preserving b must map S onto itself, as it maps the
    box, its boundary layer and ``Grid.measure_ball``: then with g_x = r_x
    b_x, r_x the first representative of its coset, the max over x in S is
    that over y = b_x x in S of |u(r_x y) - g_u u(b_x^T y)|.  u(r_x .) at S is
    u for the identity coset and one interpolation per further one (two for
    the tetrahedral group, dihedral-3 and dihedral-6); u(b_x^T .) is one node
    map and gather per distinct b_x (8, 2 and 4, the identity included).
    Images (``kernels.interp``'s ``.T``) and differences are (m, K) columns
    of one ``to_columns`` array, measured by ``_sup_norm``."""
    grid_cols = to_columns(values)
    cols = grid_cols.reshape(values.shape[-1], -1)
    reps, images, by_bx = [np.eye(grid.dim)], [cols[:, sel]], {}
    for gx, gu in pairs:
        if _is_identity(gx, gu):
            continue
        k = next((k for k, rx in enumerate(reps) if _box_preserving(rx.T @ gx)), None)
        if k is None:
            k = len(reps)
            reps.append(gx)
            images.append(kernels.interp(grid_cols, grid.nodes[sel] @ gx.T, -grid.half_width, grid.spacing).T)
        bx = np.rint(reps[k].T @ gx).astype(np.int64)  # an integer key: a float one tells -0.0 from 0.0
        by_bx.setdefault(bx.tobytes(), (bx, []))[1].append((images[k], gu))
    number = np.arange(cols.shape[1]).reshape((1,) + grid.shape)  # node numbers, the columns of u
    worst = 0.0
    for bx, members in by_bx.values():
        gathered = np.take(cols, _node_image(number, bx.T).reshape(-1)[sel], axis=1)
        for image, gu in members:
            worst = max(worst, _sup_norm(image - gu @ gathered))
    return worst


# ---------------------------------------------------------------------------
# Initial data: well-per-region map mollified by a 1D connection profile.


def initial_guess(group, region_map, profile, grid: Grid) -> VectorField:
    """Equivariant initial data: g a1 deep in each region copy, blended across
    region walls by the 1D connection applied to the signed wall distance.

    Within a region the two nearest walls compete; their profile values are
    blended on the interface-width scale so the construction is continuous
    across the medial set (up to the measure-zero junction core for orbits
    of four or more wells).  The well dot products, deficits and blend
    exponents are laid out nodes-last, (wells or pairs, nodes), and reduced
    over the short leading axis; the profile is sampled once per well pair.
    The profile is first projected onto the class of its well pair
    (``node_projection`` of the pairs (1, s) and (-1, r s), s in the pair
    stabilizer, r the reflection swapping the wells); wells that no group
    reflection swaps raise ValueError."""
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
    r = groups.reflection_matrix(base - wells[adj])
    if not region_map.group.contains(r):
        raise ValueError("base and adjacent wells are not related by a group reflection")
    one, spair = np.eye(1), region_map.pair_stabilizer_elements(adj)
    project = node_projection([(one, s) for s in spair] + [(-one, r @ s) for s in spair])
    sym_profile = replace(profile, values=from_columns(project(to_columns(profile.values))))
    pts = grid.nodes
    N = wells.shape[0]
    m = wells.shape[1]
    dots = wells @ pts.T  # (wells, nodes)
    deficits = dots.max(axis=0) - dots  # 0 for the locally dominant well

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

    width = 1.0 / (np.sqrt(2.0) * max(profile.potential.c, 0.3))
    exponents = np.empty((len(pairs), pts.shape[0]))
    pvals = np.empty((len(pairs), pts.shape[0], m))
    for q, (i, j, rep) in enumerate(pairs):
        dwell = wells[i] - wells[j]
        scale = width * np.linalg.norm(dwell)
        d = (pts @ dwell) / np.linalg.norm(dwell)
        pvals[q] = sym_profile.sample(d) @ rep.T
        exponents[q] = (deficits[i] ** 2 + deficits[j] ** 2) / scale**2
    exponents -= exponents.min(axis=0)
    w = np.exp(-exponents)
    out = np.einsum("qp,qpm->pm", w, pvals) / w.sum(axis=0)[:, None]
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
    """What ``minimize`` returns.  ``energy_history`` holds the energy of the
    start and after each step, ``iterations`` + 1 values; on a box cut by k
    odd axis mirrors, 2^k times the cut box's energy, which is the whole
    box's for the unfolded field, and the energy of the returned field last."""

    field: VectorField
    iterations: int
    energy: float
    residual: float
    converged: bool
    energy_history: list = dc_field(default_factory=list)
    equivariance_before: float | None = None
    equivariance_after: float | None = None
    method: str = "newton"  # the one solve path; reports name it
    stop_reason: str = "converged"  # converged | max_iter | line_search | stalled


def _apply_boundary(values: np.ndarray, bvals: np.ndarray, bmask_flat: np.ndarray):
    m = values.shape[-1]
    v = values.reshape(-1, m)
    v[bmask_flat] = bvals.reshape(-1, m)[bmask_flat]


CG_MAX_ITER = 200
STALL_STEPS = 4  # Newton steps without residual progress that count as a stall
BOUNDARY_EQUIVARIANCE_TOL = 1e-6
LINE_SEARCH_HALVINGS = 40


def _dirichlet_inverse(shape: tuple, h: float, shift: float):
    """Exact inverse of -Delta_h + shift on the interior nodes with zero
    boundary values, per component of a component-major array of this
    (m, *grid) shape: the type-I sine transform diagonalizes the Dirichlet
    stencil along every axis."""
    grid = shape[1:]
    dim = len(grid)
    eig = np.full((1,) * dim, float(shift))
    for a in range(dim):
        k = np.arange(1, grid[a] - 1)
        lam = (2.0 / h * np.sin(0.5 * np.pi * k / (grid[a] - 1))) ** 2
        eig = eig + lam.reshape([-1 if b == a else 1 for b in range(dim)])
    return lambda r: kernels.sine_solve(r, eig)


def _hessian_product(cols: np.ndarray, potential, h: float):
    """v -> (-Delta_h + W_uu(u)) v for component-major u and v, v vanishing
    on the boundary layer: the Hessian of the discrete energy over interior
    nodes, divided by h^dim.  W_uu is held as its upper-triangle rows.
    Component i of W_uu v is formed in a scratch column by in-place
    multiply-adds over the contiguous rows and components, j in order, and
    the stencil's component i is subtracted from it into the result."""
    m = cols.shape[0]
    H = potential.hess_columns(cols.reshape(m, -1))
    row = [[H[k] for k in ks] for ks in potential.hess_index]
    acc, term = np.empty(H.shape[1]), np.empty(H.shape[1])

    def apply(v):
        out, vs = kernels.laplacian(v, h), v.reshape(m, -1)
        for Hi, lap in zip(row, out.reshape(m, -1)):
            np.multiply(Hi[0], vs[0], out=acc)
            for Hij, vj in zip(Hi[1:], vs[1:]):
                np.add(acc, np.multiply(Hij, vj, out=term), out=acc)
            np.subtract(acc, lap, out=lap)
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
    ``project`` that the Hessian commutes with, on component-major arrays,
    is applied to each right-hand side (after its residual is measured) and
    follows the preconditioner, so every direction stays in its class.  A
    NaN energy raises SolveError.  A step that brings the residual neither
    below its lowest value, below half the one before nor above 1.25 times
    it, and the energy down by at most 1e-14 |E|, is idle: ``STALL_STEPS``
    idle steps in a row are at the rounding floor.  A residual that grows by
    a quarter or more is a descent leaving a saddle, whose energy may fall
    by less than 1e-14 |E| per step.

    The loop runs on the ``to_columns`` copy of ``state``.  Returns
    (values, residual, steps, energy history, stop reason), the values in
    the (..., m) layout of ``state``; the last energy is that of the
    returned values, and the reason, "max_iter", "line_search" or "stalled",
    matters only above target."""
    state = to_columns(state)
    # (E, b) always belong to the current state: an accepted trial brings its own
    E, b = discrete_energy(state, h, potential)
    history = [E]
    shift_inverse = _dirichlet_inverse(state.shape, h, 2.0 * potential.c**2)
    precond = shift_inverse if project is None else (lambda r: project(shift_inverse(r)))
    it, stop, best, res, idle = 0, "max_iter", np.inf, np.inf, 0
    while True:
        res, prev = _sup_norm(b), res
        falling = len(history) > 1 and history[-1] < history[-2] - 1e-14 * abs(E)
        progress = res < best or res < 0.5 * prev or res > 1.25 * prev or falling
        idle = 0 if progress else idle + 1
        best = min(best, res)
        if res <= target or it >= max_iter:
            break
        if idle >= STALL_STEPS:
            stop = "stalled"
            break
        # CG cannot reduce the part of b outside the class
        rhs = b if project is None else project(b)
        # inexact Newton: solve to a relative tolerance that tightens with the residual
        tol = min(0.1, np.sqrt(res)) * np.linalg.norm(rhs)
        p = _truncated_cg(rhs, _hessian_product(state, potential, h), precond, tol)
        t = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            trial = state + t * p
            E_trial, b_trial = discrete_energy(trial, h, potential)
            if np.isnan(E_trial):
                raise SolveError("energy became NaN during descent")
            if E_trial <= E + 1e-12:
                break
            t *= 0.5
        else:
            stop = "line_search"
            break
        state, E, b = trial, E_trial, b_trial
        it += 1
        history.append(E)
    return from_columns(state), res, it, history, stop


def minimize(field: VectorField, potential, symmetry=None, opts: SolveOptions | None = None) -> SolveResult:
    """Descend the discrete free energy to a stationary equivariant field.

    Boundary nodes keep their values in ``field``; interior nodes move by
    ``newton_krylov``, up to ``max_iter`` steps.  When no step length keeps
    the energy from rising the solve stops with
    ``stop_reason="line_search"``; a NaN energy raises SolveError.

    An action that permutes grid nodes is projected out once, before the
    steps start: they keep equivariance to rounding but do not restore it.
    Its projection maps boundary nodes to boundary nodes, so boundary
    values that are not equivariant raise ValueError: the projection would
    reset them and the solve could not converge.

    When that action has odd axis mirrors (a pair whose g_x flips axis a
    alone and whose g_u is -I), the steps run on the box they cut out,
    x_a >= 0 for each such a.  The projected start is set to zero on the
    face x_a = 0 (the class's one value there, which the projection leaves
    only to rounding), the cut box holds the face fixed with its boundary
    layer, and its sine preconditioner is exact there, since the odd sine
    modes of an axis are the sine modes of its half.  The cut field unfolds
    by u(.., -x_a, ..) = -u(.., x_a, ..), its boundary layer is reset to
    that of ``field``, and the energy and residual are those of the whole
    field; while the residual is above target (a boundary off the class
    within ``BOUNDARY_EQUIVARIANCE_TOL`` leaves it there), Newton goes on
    on the whole box within the same ``max_iter``.  Mixed-parity mirrors,
    whose g_u keeps some component even (dihedral groups, the cubic and
    tetrahedral groups, ``reflection_pairs`` with m > 1), keep the whole
    box.

    An action that rotates the grid is only measured, before and after: it
    has no node images, and the discrete critical point is equivariant only
    up to the O(h^2) error of the square-grid stencil and, when some
    elements do not map the box onto itself (16 of the tetrahedral group's
    24), the box's own asymmetry, which h does not reduce.
    """
    opts = opts or SolveOptions()
    g = field.grid
    h = g.spacing
    pairs = as_pairs(symmetry)
    bmask = ~g.interior_mask
    state = field.values.copy()

    eq_before = equivariance_residual_pairs(VectorField(g, state), pairs) if pairs else None
    cut_axes = []
    if pairs and all(_box_preserving(gx) for gx, _ in pairs):
        edge_res = _equivariance_defect(state, g, pairs, bmask)
        if edge_res > BOUNDARY_EQUIVARIANCE_TOL:
            raise ValueError(f"boundary values are not equivariant (boundary residual {edge_res:.3e})")
        state = symmetrize_pairs(VectorField(g, state), pairs).values
        cut_axes = _odd_mirror_axes(pairs)
        for a in cut_axes:
            state[(slice(None),) * a + (g.points // 2,)] = 0.0
        _apply_boundary(state, field.values, bmask)

    it, history = 0, []
    if cut_axes:
        cut = tuple(slice(g.points // 2, None) if a in cut_axes else slice(None) for a in range(g.dim))
        half, _, it, cut_history, _ = newton_krylov(state[cut], potential, h, opts.residual_target, opts.max_iter)
        history = [2.0 ** len(cut_axes) * E for E in cut_history[:-1]]
        state = _unfold(half, cut_axes)
        _apply_boundary(state, field.values, bmask)
    # after a cut: the energy and residual of the unfolded field, and steps on the whole
    # box only while it is above target (as a boundary off the class within tolerance leaves it)
    state, res, steps, full_history, stop = newton_krylov(
        state, potential, h, opts.residual_target, opts.max_iter - it
    )
    it += steps
    history += full_history
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


def write_csv(path, header, table: np.ndarray, prefixes=None):
    """A header line, then one line of %.17g cells (the strings of
    ``format(v, ".17g")``) per row of the 2D float table, formatted in one
    pass; each row opens with its string from ``prefixes`` if given."""
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    rows = row_fmt * table.shape[0] if prefixes is None else row_fmt.join(prefixes) + row_fmt
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(rows % tuple(table.ravel().tolist()))


def write_json(path, obj):
    """``obj`` as JSON with sorted keys, indent 2 and a final newline; numpy
    scalars and arrays are written as their ``tolist()``."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=lambda o: o.tolist())
        fh.write("\n")


def save_field(field: VectorField, csv_path, meta_path, extra_meta: dict | None = None):
    g = field.grid
    header = [f"x{i + 1}" for i in range(g.dim)] + [f"u{i + 1}" for i in range(field.m)]
    # the nodes are the C-order product of the axis: format each coordinate once
    cells = [format(x, ".17g") + "," for x in g.axis().tolist()]
    write_csv(csv_path, header, field.flat(), ["".join(p) for p in itertools.product(cells, repeat=g.dim)])
    meta = {
        "dim": g.dim,
        "half_width": g.half_width,
        "points": g.points,
        "m": field.m,
    }
    if extra_meta:
        meta.update(extra_meta)
    write_json(meta_path, meta)


def load_field(csv_path, meta_path) -> VectorField:
    """The field that ``save_field`` wrote.  A ``dim``, ``points`` or ``m``
    that is not a whole number and a ``half_width`` that is not a number
    (an int or float coercion would read 2.5 as 2 and "4" as 4.0) raise
    ValueError naming the key; so do metadata that are not a JSON object
    and a value that is not finite."""
    with open(meta_path) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: the metadata must be a JSON object")
    for key, ok, kind in (("dim", _integral, "an integer"), ("half_width", _number, "a number"),
                          ("points", _integral, "an integer"), ("m", _integral, "an integer")):
        if not ok(meta[key]):
            raise ValueError(f"{meta_path}: {key!r} is {meta[key]!r}; it must be {kind}")
    grid = Grid(dim=int(meta["dim"]), half_width=float(meta["half_width"]), points=int(meta["points"]))
    m = int(meta["m"])
    # the node coordinates follow from the grid; only the value columns are parsed
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=range(grid.dim, grid.dim + m)).reshape(-1, m)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValueError(f"{csv_path} line {bad[0] + 2}: values {data[bad[0]].tolist()} must be finite")
    return VectorField(grid, data.reshape(grid.shape + (m,)))
