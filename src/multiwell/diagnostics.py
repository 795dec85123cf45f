"""Residual checks for the integral and pointwise identities of the model.

Every operation here is read-only analysis of a sampled field.
``stress_energy`` evaluates a field's terms once into a ``StressEnergy``
record, which every identity reads: the tensor's divergence, ball-energy
monotonicity, the scalar gradient bound, sphere fluxes, the Pohozaev balance
and strip-wise Hamiltonian conservation.  Only the decay fit and the junction
location and angles read the field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .fields import BOX_EDGE_TOL, Grid, VectorField, to_columns


class DiagnosticsError(RuntimeError):
    pass


def _interior_slices(dim):
    return tuple(slice(1, -1) for _ in range(dim))


def _well_distances(vals: np.ndarray, wells: np.ndarray) -> np.ndarray:
    """(N, k) distances of N points (N, m) to k wells (k, m), one well at a
    time, so that no (N, k, m) difference array is formed."""
    d = np.empty((vals.shape[0], wells.shape[0]))
    for j, w in enumerate(wells):
        d[:, j] = np.linalg.norm(vals - w, axis=1)
    return d


def _gradients(field: VectorField) -> list[np.ndarray]:
    """First derivatives on every node, one array per axis: ``np.gradient``
    with second-order one-sided ends, the centered difference inside."""
    h = field.grid.spacing
    return [np.gradient(field.values, h, axis=a, edge_order=2) for a in range(field.grid.dim)]


@dataclass(frozen=True)
class StressEnergy:
    """The terms of a field, evaluated once: |d_a u|^2 per axis a (``axis_sq``)
    and W(u) (``W``) on every node of ``field``, the potential's wells, and
    the stress-energy tensor on the interior nodes, node 0 of each axis at
    -half_width + spacing.

    The gradients are those of ``_gradients``, the centered difference
    (u[i+1] - u[i-1]) / 2h inside, and tensor[..., a, b] =
    du_a . du_b - delta_ab (|grad u|^2 / 2 + W), symmetric by construction."""

    field: VectorField
    wells: np.ndarray
    axis_sq: tuple  # one grid-shaped array per axis
    W: np.ndarray  # grid shape
    tensor: np.ndarray  # interior shape + (n, n)

    @property
    def grid(self) -> Grid:
        return self.field.grid

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def sq(self) -> np.ndarray:  # |grad u|^2 on every node
        return sum(self.axis_sq)

    def interp(self, pts: np.ndarray) -> np.ndarray:
        """The tensor components at points by multilinear interpolation, as a
        C-contiguous (N, n, n) array: einsum sums a transposed view in another order."""
        h = self.grid.spacing
        flat = self.tensor.reshape(self.tensor.shape[: self.dim] + (-1,))
        vals = kernels.interp(to_columns(flat), pts, h - self.grid.half_width, h)
        return np.ascontiguousarray(vals).reshape(pts.shape[0], self.dim, self.dim)


def stress_energy(field: VectorField, potential) -> StressEnergy:
    n = field.grid.dim
    inner = _interior_slices(n)
    full = _gradients(field)
    axis_sq = tuple(np.sum(d * d, axis=-1) for d in full)
    W = potential.value_field(field.flat()).reshape(field.grid.shape)
    diag = 0.5 * sum(axis_sq)[inner] + W[inner]
    T = np.empty(diag.shape + (n, n))
    for a in range(n):
        for b in range(n):
            T[..., a, b] = np.sum(full[a][inner] * full[b][inner], axis=-1)
        T[..., a, a] -= diag
    return StressEnergy(field=field, wells=potential.wells, axis_sq=axis_sq, W=W, tensor=T)


def divergence_residual(se: StressEnergy) -> float:
    """sup over (interior of the) interior nodes of |sum_b d_b T_ab|, each
    d_b the centered difference of ``np.gradient`` along axis b."""
    inner = _interior_slices(se.dim)
    div = sum(np.gradient(se.tensor[..., b], se.grid.spacing, axis=b)[inner] for b in range(se.dim))
    return float(np.sqrt(np.sum(div * div, axis=-1)).max())


def monotonicity_profile(se: StressEnergy, x0, radii, strong: bool = False) -> dict:
    """Ball energies E(R) = J(u; B_R(x0)) scaled by R^(n-2) (or R^(n-1) with
    ``strong=True``, meaningful for scalar fields only).

    Node-inclusion quadrature keeps E(R) exactly nested, so the reported
    violation isolates the scaling part of the monotonicity statement.  A
    node within ``BOX_EDGE_TOL`` h of the sphere is in the ball, so a radius
    on a node shell (R = 4h, with 4h rounded either way) holds the whole
    shell."""
    g = se.grid
    x0 = np.asarray(x0, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    if np.any(radii > g.half_width + 1e-12):
        raise DiagnosticsError("radius exceeds the box")
    e = (0.5 * se.sq + se.W).ravel()[g.interior_mask]
    dist = np.linalg.norm(g.nodes[g.interior_mask] - x0[None, :], axis=1)
    hn = g.spacing**g.dim
    tol = BOX_EDGE_TOL * g.spacing
    energies = np.array([hn * float(e[dist <= R + tol].sum()) for R in radii])
    expo = g.dim - 1 if strong else g.dim - 2
    ratios = energies / radii**expo
    diffs = ratios[:-1] - ratios[1:]
    scale = max(np.max(np.abs(ratios)), 1e-300)
    violation = float(max(0.0, diffs.max() / scale)) if len(diffs) else 0.0
    return {
        "radii": radii,
        "energies": energies,
        "ratios": ratios,
        "max_relative_violation": violation,
    }


def modica_deficit(se: StressEnergy) -> float:
    """max over interior nodes of |grad u|^2/2 - W(u); positive = violation
    of the scalar gradient bound."""
    return float((0.5 * se.sq - se.W)[_interior_slices(se.dim)].max())


def pohozaev_residual(se: StressEnergy, x0) -> float:
    """|(n-2)/2 int |grad u|^2 + n int W + 1/2 bdry (x - x0).nu |grad u|^2|
    over the solver box, for fields with single-well boundary values."""
    g = se.grid
    n = g.dim
    h = g.spacing
    x0 = np.asarray(x0, dtype=np.float64)
    bvals = se.field.flat()[~g.interior_mask]
    if se.wells.shape[0] == 0:
        raise DiagnosticsError("potential declares no wells")
    if float(_well_distances(bvals, se.wells).min(axis=1).max()) > 1e-6:
        raise DiagnosticsError("boundary is not held at a single well value")

    sq = se.sq
    wts = kernels.trapezoid_weights(g.shape)
    hn = h**n
    vol = (n - 2) / 2.0 * hn * float(np.sum(wts * sq)) + n * hn * float(np.sum(wts * se.W))

    bdry = 0.0
    for a in range(n):
        for side, idx in ((-1.0, 0), (1.0, -1)):
            face = tuple(idx if b == a else slice(None) for b in range(n))
            sq_face = sq[face]
            nu_dot = side * g.half_width - x0[a]
            w_face = kernels.trapezoid_weights(sq_face.shape)
            bdry += side * nu_dot * float(np.sum(w_face * sq_face)) * h ** (n - 1)
    return abs(vol + 0.5 * bdry)


def hamiltonian_variance(se: StressEnergy, strip=None, decay_tol: float = 0.05) -> dict:
    """Strip-wise conservation check for planar fields.

    For each grid row x2 = const in the strip, integrates
    (|u_x1|^2 - |u_x2|^2)/2 - W(u) over x1 and reports the spread of the row
    integrals relative to their mean magnitude.  Rows must decay to wells at
    the strip ends; otherwise the result is flagged and not comparable."""
    g = se.grid
    if g.dim != 2:
        raise DiagnosticsError("hamiltonian check needs a planar field")
    h = g.spacing
    axis = g.axis()
    if strip is None:
        strip = (-g.half_width, g.half_width)
    rows = np.flatnonzero((axis >= strip[0]) & (axis <= strip[1]))
    if rows.size < 2:
        raise DiagnosticsError("strip selects fewer than two rows")
    u = se.field.values
    flagged = False
    if se.wells.shape[0]:
        ends = np.concatenate([u[0, rows, :], u[-1, rows, :]])
        flagged = bool(_well_distances(ends, se.wells).min(axis=1).max() > decay_tol)
    integrand = 0.5 * (se.axis_sq[0] - se.axis_sq[1]) - se.W
    series = h * (kernels.trapezoid_weights(axis.shape) @ integrand[:, rows])
    mean = float(np.mean(series))
    spread = float(np.std(series))
    return {
        "x2": axis[rows],
        "integrals": series,
        "mean": mean,
        "std": spread,
        "relative_variance": spread / max(abs(mean), 1e-300),
        "decay_precondition_met": not flagged,
    }


def decay_fit(field: VectorField, well_point, ray, window=(1e-10, 1e-1), region_map=None) -> dict:
    """Fit |u - a| ~ K exp(-k dist(x, region boundary)) at 200 points along a
    ray in the base-well region; distance falls back to arclength without a
    region map."""
    g = field.grid
    well = np.asarray(well_point, dtype=np.float64)
    d = np.asarray(ray, dtype=np.float64)
    d = d / np.linalg.norm(d)
    tmax = 0.98 * g.half_width / np.max(np.abs(d))
    ts = np.linspace(g.spacing, tmax, 200)
    pts = ts[:, None] * d[None, :]
    vals = field.interp(pts)
    dev = np.linalg.norm(vals - well[None, :], axis=1)
    if region_map is not None:
        dist = np.array([region_map.wall_distance(p) for p in pts])
    else:
        dist = ts
    sel = (dev >= window[0]) & (dev <= window[1]) & (dist > 0)
    if np.count_nonzero(sel) < 4:
        return {"ok": False, "n_points": int(np.count_nonzero(sel)), "K": None, "k": None}
    slope, intercept = np.polyfit(dist[sel], np.log(dev[sel]), 1)
    return {
        "ok": True,
        "K": float(np.exp(intercept)),
        "k": float(-slope),
        "n_points": int(np.count_nonzero(sel)),
    }


def flux_balance(se: StressEnergy, radius: float, n_samples: int = 720) -> np.ndarray:
    """Flux of the stress-energy tensor through the sphere of given radius
    about the origin: integral of T . nu, trapezoid rule with interpolated
    tensor values."""
    g = se.grid
    n = g.dim
    if radius > g.half_width - g.spacing:
        raise DiagnosticsError("sphere does not fit inside the interior grid")
    if n == 2:
        th = np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
        nu = np.stack([np.cos(th), np.sin(th)], axis=1)
        w = np.full(n_samples, 2 * np.pi * radius / n_samples)
    elif n == 3:
        n_th = max(8, int(np.sqrt(n_samples)))
        n_ph = 2 * n_th
        th = (np.arange(n_th) + 0.5) * np.pi / n_th
        ph = np.linspace(0.0, 2 * np.pi, n_ph, endpoint=False)
        TH, PH = np.meshgrid(th, ph, indexing="ij")
        nu = np.stack(
            [np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1
        ).reshape(-1, 3)
        w = (np.sin(TH) * (np.pi / n_th) * (2 * np.pi / n_ph)).ravel() * radius**2
    else:
        raise DiagnosticsError("flux balance implemented for dim 2 and 3")
    T = se.interp(radius * nu)
    return w @ np.einsum("qab,qb->qa", T, nu)


def locate_junction(field: VectorField, wells: np.ndarray) -> np.ndarray:
    """Node minimizing the spread between the distances to the nearest wells;
    ties resolve toward the origin."""
    d = _well_distances(field.flat(), wells)
    d.sort(axis=1)
    k = min(wells.shape[0], 3)
    spread = d[:, k - 1] - d[:, 0]
    nodes = field.grid.nodes
    score = spread + 1e-9 * np.sum(nodes * nodes, axis=1)
    return nodes[int(np.argmin(score))]


def junction_angles(field: VectorField, wells: np.ndarray, r0: float, center=None) -> dict:
    """Nearest-well angular occupation at 3600 points on the circle of
    radius r0 about the junction; angles sum to 2 pi exactly by construction."""
    g = field.grid
    if g.dim != 2:
        raise DiagnosticsError("junction angles need a planar field")
    wells = np.asarray(wells, dtype=np.float64)
    if center is None:
        center = locate_junction(field, wells)
    center = np.asarray(center, dtype=np.float64)
    if r0 + np.max(np.abs(center)) > g.half_width:
        raise DiagnosticsError("circle leaves the box")
    th = np.linspace(0.0, 2 * np.pi, 3600, endpoint=False)
    pts = center[None, :] + r0 * np.stack([np.cos(th), np.sin(th)], axis=1)
    vals = field.interp(pts)
    labels = np.argmin(_well_distances(vals, wells), axis=1)
    counts = np.bincount(labels, minlength=wells.shape[0])
    angles = 2 * np.pi * counts / 3600
    transitions = int(np.sum(labels != np.roll(labels, 1)))
    distinct = int(np.unique(labels).size)
    return {
        "center": center,
        "angles": angles,
        "labels_present": distinct,
        "single_junction": transitions == distinct,
    }
