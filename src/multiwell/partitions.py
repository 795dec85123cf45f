"""Sharp-interface partition calculus on exact planar geometry.

Partitions are explicit segment/ray complexes with phase-pair tags, so
interface masses, densities, windowed energies and Hausdorff distances are
analytic rather than pixel counts or samples.  Includes the weighted Steiner point (in closed form, with
vertex capture by the subgradient test), Young's law angles, the
shortest-path reduction of surface-tension matrices, cones, and blow-downs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .potentials import _integral, _known_keys, _numbers


class PartitionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Surface tensions


@dataclass(frozen=True)
class TensionMatrix:
    """Symmetric finite pairwise surface tensions; e_ii = 0, e_ij > 0 off-diagonal."""

    e: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.e, dtype=np.float64)
        object.__setattr__(self, "e", e)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise PartitionError("tension matrix must be square")
        bad = np.argwhere(~np.isfinite(e))
        if bad.size:
            raise PartitionError(f"tension entry {tuple(bad[0].tolist())} must be finite; got {e[tuple(bad[0])]}")
        if np.max(np.abs(e - e.T)) > 1e-12:
            raise PartitionError("tension matrix must be symmetric")
        if np.max(np.abs(np.diag(e))) > 0:
            raise PartitionError("diagonal tensions must vanish")
        off = e + np.eye(e.shape[0])
        if np.min(off) <= 0:
            raise PartitionError("off-diagonal tensions must be positive")

    @property
    def phases(self) -> int:
        return self.e.shape[0]

    def __getitem__(self, ij) -> float:
        return float(self.e[ij])

    def is_strictly_metric(self) -> bool:
        """e_ik < e_ij + e_jk for all triples with j distinct from i, k."""
        N = self.phases
        for i in range(N):
            for k in range(N):
                for j in range(N):
                    if j in (i, k) or i == k:
                        continue
                    if not self.e[i, k] < self.e[i, j] + self.e[j, k]:
                        return False
        return True


def metric_reduce(tensions: TensionMatrix) -> TensionMatrix:
    """All-pairs shortest path over the phase graph: the reduced tensions
    satisfy the weak triangle inequality, never exceed the input, and the
    reduction is idempotent."""
    E = tensions.e.copy()
    N = tensions.phases
    for k in range(N):
        E = np.minimum(E, E[:, k, None] + E[None, k, :])
    np.fill_diagonal(E, 0.0)
    return TensionMatrix(E)


# ---------------------------------------------------------------------------
# Partition geometry


@dataclass(frozen=True)
class Segment:
    phase_i: int
    phase_j: int
    p0: np.ndarray
    p1: np.ndarray

    def transformed(self, shift, scale):
        return Segment(self.phase_i, self.phase_j, (self.p0 - shift) * scale, (self.p1 - shift) * scale)


@dataclass(frozen=True)
class Ray:
    phase_i: int
    phase_j: int
    origin: np.ndarray
    direction: np.ndarray  # unit

    def transformed(self, shift, scale):
        return Ray(self.phase_i, self.phase_j, (self.origin - shift) * scale, self.direction)


@dataclass(frozen=True)
class Disk:
    center: np.ndarray
    radius: float


def disk(center, radius) -> Disk:
    return Disk(np.asarray(center, dtype=np.float64), float(radius))


@dataclass(frozen=True)
class PolygonalPartition:
    """Interface complex of tagged segments and rays for N phases.  Every
    element has phase_j on its counterclockwise side: left of a ray's
    direction, left of a segment's p1 - p0."""

    phases: int
    elements: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.phases < 1:
            raise PartitionError(f"a partition needs at least one phase; got {self.phases}")
        for el in self.elements:
            for p in (el.phase_i, el.phase_j):
                if not (1 <= p <= self.phases):
                    raise PartitionError(f"phase tag {p} outside 1..{self.phases}")
            if el.phase_i == el.phase_j:
                raise PartitionError("interface must separate two distinct phases")

    def translated_scaled(self, shift, scale) -> "PolygonalPartition":
        shift = np.asarray(shift, dtype=np.float64)
        return replace(self, elements=tuple(el.transformed(shift, scale) for el in self.elements))


def _lengths_in(part: PolygonalPartition, window: Disk) -> np.ndarray:
    """Length of each element inside the closed window; 0 where it has none."""
    o, v, seg = _carriers(part)
    _, D, keep = _clipped_pieces(o, v, seg, window)
    lengths = np.zeros(len(o))
    lengths[keep] = np.hypot(D[:, 0], D[:, 1])
    return lengths


def interface_mass(part: PolygonalPartition, window: Disk) -> float:
    return sum(_lengths_in(part, window).tolist())


def _energy(part: PolygonalPartition, tensions: TensionMatrix, lengths: np.ndarray) -> float:
    if tensions.phases < part.phases:
        raise PartitionError("tension matrix smaller than the phase count")
    total = 0.0
    for el, length in zip(part.elements, lengths.tolist()):
        total += tensions[el.phase_i - 1, el.phase_j - 1] * length
    return total


def partition_energy(part: PolygonalPartition, tensions: TensionMatrix, window: Disk) -> float:
    """E(A; W) = sum over interface pairs of e_ij x length inside the window."""
    return _energy(part, tensions, _lengths_in(part, window))


def density(part: PolygonalPartition, x, r: float) -> float:
    """Interface mass in B_r(x) over 2r (planar codimension-one normalization);
    constant in r exactly on cones, 3/2 at a triod vertex, 1 on a line."""
    if r <= 0:
        raise PartitionError("density radius must be positive")
    return interface_mass(part, disk(x, r)) / (2.0 * r)


def density_and_energy(part: PolygonalPartition, tensions: TensionMatrix, x, r: float) -> tuple[float, float]:
    """``density`` and ``partition_energy`` on the disk B_r(x), from one clip
    of the partition."""
    if r <= 0:
        raise PartitionError("density radius must be positive")
    lengths = _lengths_in(part, disk(x, r))
    return sum(lengths.tolist()) / (2.0 * r), _energy(part, tensions, lengths)


def make_cone(x0, ray_directions) -> PolygonalPartition:
    """Cone over the given directions with vertex x0: one ray per direction,
    sectors labeled 1..k counterclockwise.  The i-th ray by angle separates
    phase i from phase i mod k + 1, on its counterclockwise side."""
    x0 = np.asarray(x0, dtype=np.float64)
    dirs = [np.asarray(d, dtype=np.float64) for d in ray_directions]
    if len(dirs) < 2:
        raise PartitionError("a cone needs at least 2 rays")
    dirs = [d / np.linalg.norm(d) for d in dirs]
    angles = [math.atan2(d[1], d[0]) for d in dirs]
    order = np.argsort(angles)
    dirs = [dirs[i] for i in order]
    for a, b in zip(dirs, dirs[1:]):
        if np.linalg.norm(a - b) < 1e-12:
            raise PartitionError("duplicate ray directions")
    k = len(dirs)
    elements = [Ray(i + 1, (i + 1) % k + 1, x0.copy(), d) for i, d in enumerate(dirs)]
    return PolygonalPartition(phases=k, elements=tuple(elements))


def blow_down(part: PolygonalPartition, x0, scales) -> list[PolygonalPartition]:
    """Rescalings mu (S - x0) for decreasing scales mu; cones are fixed points,
    bounded features shrink toward the cone at infinity."""
    scales = list(scales)
    if any(s <= 0 for s in scales):
        raise PartitionError("scales must be positive")
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise PartitionError("scales must be strictly decreasing")
    return [part.translated_scaled(x0, mu) for mu in scales]


def _carriers(part: PolygonalPartition):
    """o, v, is-segment per element: o + t v over t in [0, 1] or t >= 0 (a ray)."""
    els = part.elements
    o = np.array([el.p0 if isinstance(el, Segment) else el.origin for el in els]).reshape(-1, 2)
    v = np.array([el.p1 - el.p0 if isinstance(el, Segment) else el.direction for el in els]).reshape(-1, 2)
    return o, v, np.array([isinstance(el, Segment) for el in els], dtype=bool)


def _roots(A, B, C):
    """Roots q / A and C / q of A t^2 + B t + C, q = -(B + sign(B) sqrt(B^2 - 4AC)) / 2
    (C / q = -C / B when A = 0); nan or +-inf where a root does not exist."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(B + np.where(B < 0, -1.0, 1.0) * np.sqrt(B * B - 4 * A * C)) / 2
        return q / A, C / q


def _clipped_pieces(o, v, seg, w: Disk):
    """Pieces P0 + t D (t in [0, 1]) of the elements o, v, seg inside the
    closed window, from |o + t v - c|^2 = R^2, and the mask of the elements
    they come from; zero-length segments give none."""
    oc = o - w.center
    A = np.sum(v * v, axis=1)
    t1, t2 = _roots(A, 2 * np.sum(oc * v, axis=1), np.sum(oc * oc, axis=1) - w.radius**2)
    lo = np.maximum(np.fmin(t1, t2), 0.0)  # nan where the carrier misses the disk
    hi = np.minimum(np.fmax(t1, t2), np.where(seg, 1.0, np.inf))
    keep = (A > 0) & (lo <= hi)
    return o[keep] + lo[keep, None] * v[keep], (hi - lo)[keep, None] * v[keep], keep


def _element_distances(pts: np.ndarray, o, v, seg) -> np.ndarray:
    """Exact distances (N, n) from the rows of ``pts`` to the elements: the projection
    parameter is clipped to [0, 1] on a segment, [0, inf) on a ray (unit direction)."""
    d = pts[:, None] - o
    L2 = np.where(seg, v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1], 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero-length segment: t = 0
        t = np.nan_to_num(np.clip((d[..., 0] * v[:, 0] + d[..., 1] * v[:, 1]) / L2, 0.0, np.where(seg, 1.0, np.inf)))
    return np.sqrt(np.sum((d - t[..., None] * v) ** 2, axis=2))


def _directed(P0, D, o, v, seg) -> float:
    """The largest distance from the pieces P0 + t D (t in [0, 1]) to the
    elements o, v, seg, at the candidates t of ``hausdorff_distance``."""
    L2 = np.sum(v * v, axis=1)
    lines = L2 > 0  # a zero-length segment has an end and no carrier line
    n = np.stack([-v[lines, 1], v[lines, 0]], axis=1) / np.sqrt(L2[lines])[:, None]
    # squared distance |e + t d|^2 to each end (d = D) and each carrier line (e, d along n)
    ends = np.concatenate([o, (o + v)[seg]])
    e = np.concatenate([P0[:, None] - ends, _dot(P0[:, None] - o[lines], n)[..., None] * n], axis=1)
    d = np.concatenate([np.repeat(D[:, None], len(ends), axis=1), (D @ n.T)[..., None] * n], axis=1)
    A, B, C = _dot(d, d), 2 * _dot(e, d), _dot(e, e)
    i, j = np.triu_indices(A.shape[1], 1)
    T = np.concatenate([np.broadcast_to([0.0, 1.0], (len(P0), 2)),
                        *_roots(A[:, i] - A[:, j], B[:, i] - B[:, j], C[:, i] - C[:, j])], axis=1)
    rows, cols = np.nonzero((T >= 0) & (T <= 1))
    pts = P0[rows] + T[rows, cols, None] * D[rows]
    return float(_element_distances(pts, o, v, seg).min(axis=1).max())


def hausdorff_distance(a: PolygonalPartition, b: PolygonalPartition, window: Disk) -> float:
    """Exact Hausdorff distance between the skeletons' pieces inside the closed
    window, each against the other's whole elements; inf if either has none.
    On a piece P0 + t D the distance to an element is convex in t, and its
    square is, region by region, that to an end or to the carrier line: a
    quadratic in t.  Two elements' distances can cross only at a root of a
    difference of these quadratics, so between consecutive candidates t in
    {0, 1, those roots} one element is the nearest and its distance peaks at
    an end."""
    ca, cb = _carriers(a), _carriers(b)
    pa, pb = _clipped_pieces(*ca, window)[:2], _clipped_pieces(*cb, window)[:2]
    if len(pa[0]) == 0 or len(pb[0]) == 0:
        return float("inf")
    return max(_directed(*pa, *cb), _directed(*pb, *ca))


# ---------------------------------------------------------------------------
# Reference configurations


def line_partition() -> PolygonalPartition:
    """The x1 axis: two rays from the origin, phase 2 above, phase 1 below."""
    d = np.array([1.0, 0.0])
    return PolygonalPartition(
        phases=2,
        elements=(
            Ray(1, 2, np.zeros(2), d),
            Ray(2, 1, np.zeros(2), -d),
        ),
    )


def triod() -> PolygonalPartition:
    """Three rays at 120 degrees from the origin, one along x2; phases 1, 2, 3 in sectors."""
    dirs = [np.pi / 2 + k * 2 * np.pi / 3 for k in range(3)]
    return make_cone(np.zeros(2), [[math.cos(t), math.sin(t)] for t in dirs])


def double_junction(separation: float) -> PolygonalPartition:
    """Two triple junctions at (+-s/2, 0) joined by a middle interface; phase 1
    occupies both outer sectors (disconnected), 2 on top, 3 below."""
    if separation <= 0:
        raise PartitionError("separation must be positive")
    d = separation / 2.0
    c60, s60 = 0.5, math.sqrt(3.0) / 2.0
    right = np.array([d, 0.0])
    left = np.array([-d, 0.0])
    return PolygonalPartition(
        phases=3,
        elements=(
            Segment(3, 2, left, right),
            Ray(1, 2, right.copy(), np.array([c60, s60])),
            Ray(3, 1, right.copy(), np.array([c60, -s60])),
            Ray(2, 1, left.copy(), np.array([-c60, s60])),
            Ray(1, 3, left.copy(), np.array([-c60, -s60])),
        ),
    )


def x_cone() -> PolygonalPartition:
    """Blow-down limit of the double junction: four rays from the origin at
    +-60 and +-120 degrees, phases (1, 2, 1, 3) around."""
    c60, s60 = 0.5, math.sqrt(3.0) / 2.0
    return PolygonalPartition(
        phases=3,
        elements=(
            Ray(1, 2, np.zeros(2), np.array([c60, s60])),
            Ray(2, 1, np.zeros(2), np.array([-c60, s60])),
            Ray(1, 3, np.zeros(2), np.array([-c60, -s60])),
            Ray(3, 1, np.zeros(2), np.array([c60, -s60])),
        ),
    )


def merged_competitor(separation: float, window_radius: float) -> PolygonalPartition:
    """Connectedness competitor for the double junction in a given window:
    phase 1 is joined through the middle, phases 2 and 3 retreat to the chord
    lenses above and below.  Matches the double junction's trace on the
    window circle."""
    d = separation / 2.0
    R = window_radius
    ell = (-d + math.sqrt(4 * R * R - 3 * d * d)) / 2.0
    x = d + ell / 2.0
    y = ell * math.sqrt(3.0) / 2.0
    return PolygonalPartition(
        phases=3,
        elements=(
            Segment(1, 2, np.array([-x, y]), np.array([x, y])),
            Segment(3, 1, np.array([-x, -y]), np.array([x, -y])),
        ),
    )


# ---------------------------------------------------------------------------
# Weighted Steiner point (Young's law at a triple junction)


def triangle_errors(vertices, weights) -> np.ndarray:
    """Why each row of vertices (..., 3, 2) and weights (..., 3) is no
    weighted triangle, or '' where it is one.  The first that applies of: a
    non-finite entry, a weight <= 0, two vertices within 1e-12 (the residual
    divides by the distances between them)."""
    V = np.asarray(vertices, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf on rows rejected as non-finite
        edges = V - np.roll(V, 1, axis=-2)
    return np.select(
        [
            ~(np.isfinite(V).all(axis=(-2, -1)) & np.isfinite(w).all(axis=-1)),
            w.min(axis=-1) <= 0,
            np.hypot(edges[..., 0], edges[..., 1]).min(axis=-1) <= 1e-12,
        ],
        ["vertices and weights must be finite", "weights must be positive", "vertices must be distinct"],
        "",
    )


@dataclass(frozen=True)
class WeightedTriangle:
    """Vertices A, B, C with weights w_A = e12, w_B = e13, w_C = e23."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    e12: float
    e13: float
    e23: float

    def __post_init__(self):
        for name in ("A", "B", "C"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        error = triangle_errors(self.vertices, self.weights).item()
        if error:
            raise PartitionError(error)

    @property
    def vertices(self) -> np.ndarray:
        return np.stack([self.A, self.B, self.C])

    @property
    def weights(self) -> np.ndarray:
        return np.array([self.e12, self.e13, self.e23])


def weighted_sum(P, tri: WeightedTriangle) -> float:
    P = np.asarray(P, dtype=np.float64)
    d = np.linalg.norm(tri.vertices - P[None, :], axis=1)
    return float(tri.weights @ d)


def _dot(a, b):
    """Row-wise a . b over the last axis, rounded as ``a @ b`` on one pair."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _pull(P, V, w, skip=-1):
    """Per row, |sum of the weighted unit pulls w_j (V_j - P) / |V_j - P||
    over the vertices j other than ``skip`` (-1: none)."""
    dv = V - P[..., None, :]
    keep = np.arange(3) != np.asarray(skip)[..., None]
    d = np.where(keep, np.hypot(dv[..., 0], dv[..., 1]), 1.0)
    pulls = np.where(keep[..., None], w[..., None] * dv / d[..., None], 0.0)
    total = pulls[..., 0, :] + pulls[..., 1, :] + pulls[..., 2, :]
    return np.hypot(total[..., 0], total[..., 1])


def first_order_residual(P, vertices, weights):
    """Per row of P (..., 2), vertices (..., 3, 2) and weights (..., 3):
    |sum of weighted unit pulls| at an interior P; within 1e-12 of a vertex,
    the subgradient excess max(0, |pull from the others| - own weight)."""
    P = np.asarray(P, dtype=np.float64)
    V = np.asarray(vertices, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    dv = V - P[..., None, :]
    near = np.hypot(dv[..., 0], dv[..., 1]) <= 1e-12
    at = np.where(near.any(axis=-1), near.argmax(axis=-1), -1)
    pull = _pull(P, V, w, skip=at)
    own = np.take_along_axis(w, np.maximum(at, 0)[..., None], axis=-1)[..., 0]
    return np.where(at >= 0, np.maximum(0.0, pull - own), pull)


def _arc_centre(X, Y, Z, cos_angle):
    """Per row, the centre of the circle through X and Y from whose arc on
    Z's side the chord XY is seen at the angle with this cosine (in (-1, 1))."""
    n = np.stack([Y[..., 1] - X[..., 1], X[..., 0] - Y[..., 0]], axis=-1)  # normal to XY, |n| = |XY|
    n = np.where((_dot(n, Z - X) < 0)[..., None], -n, n)
    # inscribed angle theorem: the centre sits |XY| cot(angle) / 2 from the midpoint
    return (X + Y) / 2 + (0.5 * cos_angle / np.sqrt(1.0 - cos_angle**2))[..., None] * n


def steiner_points(vertices, weights):
    """Minimize the weighted vertex-distance sum of n triangles in closed form,
    as column arithmetic over the rows of vertices (n, 3, 2) and weights (n, 3).

    Vertex capture is decided first by the subgradient test, at vertices 0,
    1, 2 in turn: the first whose excess is <= 1e-14 is the minimizer.
    Otherwise the weighted unit pulls at the minimizer P close a triangle with
    sides (e12, e13, e23), so the law of cosines fixes the angles APB and APC:
    P lies on the arc through A and B that sees AB at angle APB, and on the
    arc through A and C that sees AC at angle APC.  Both circles pass through
    A, so P is A reflected across the line through their centres.

    Returns (P (n, 2), vertex (n,), residual (n,)): ``vertex`` is the
    captured vertex or -1, ``residual`` the first-order residual at P.  A row
    that ``triangle_errors`` rejects raises PartitionError."""
    V = np.asarray(vertices, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if V.ndim != 3 or V.shape[1:] != (3, 2) or w.shape != V.shape[:2]:
        raise PartitionError(f"expected vertices (n, 3, 2) and weights (n, 3); got {V.shape} and {w.shape}")
    errors = triangle_errors(V, w)
    bad = np.flatnonzero(errors)
    if bad.size:
        raise PartitionError(f"row {bad[0]}: {errors[bad[0]]}")
    rows = np.arange(len(V))
    excess = np.stack([_pull(V[:, i], V, w, skip=i) - w[:, i] for i in range(3)], axis=1)
    hit = excess <= 1e-14
    vertex = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    # captured rows; the free rows (vertex -1) are overwritten below
    P = V[rows, np.maximum(vertex, 0)]
    residual = np.maximum(0.0, excess[rows, vertex])
    free = vertex < 0
    # not captured, so the weights satisfy the strict triangle inequality
    (A, B, C), (wa, wb, wc) = V[free].transpose(1, 0, 2), w[free].T
    o1 = _arc_centre(A, B, C, (wc * wc - wa * wa - wb * wb) / (2 * wa * wb))
    o2 = _arc_centre(A, C, B, (wb * wb - wa * wa - wc * wc) / (2 * wa * wc))
    u = o2 - o1
    P[free] = 2 * (o1 + (_dot(A - o1, u) / _dot(u, u))[:, None] * u) - A
    residual[free] = first_order_residual(P[free], V[free], w[free])
    return P, vertex, residual


def steiner_point(tri: WeightedTriangle):
    """The one-row call of ``steiner_points``.

    Returns (point, info): info records ``captured``, the captured
    ``vertex`` (or None) and the first-order ``residual``; ``converged`` is
    always True and ``iterations`` always 0."""
    P, vertex, residual = steiner_points(tri.vertices[None], tri.weights[None])
    v = int(vertex[0])
    return P[0], {
        "captured": v >= 0,
        "vertex": v if v >= 0 else None,
        "converged": True,
        "iterations": 0,
        "residual": float(residual[0]),
    }


def young_angles(e12: float, e13: float, e23: float):
    """Junction angles (theta_1, theta_2, theta_3) from the tension triangle:
    law of cosines on side lengths (e23, e13, e12), supplementary map back.

    Requires the strict triangle inequality; the violating triple is named
    otherwise.  The returned angles sum to 2 pi up to rounding."""
    sides = {"e23": e23, "e13": e13, "e12": e12}
    for name, s in sides.items():
        others = sum(v for k, v in sides.items() if k != name)
        if not s < others:
            raise PartitionError(
                f"triangle inequality fails: {name} = {s} >= sum of the others = {others}"
            )
    a, b, c = e23, e13, e12  # opposite hat-theta_1, 2, 3
    hat1 = math.acos((b * b + c * c - a * a) / (2 * b * c))
    hat2 = math.acos((a * a + c * c - b * b) / (2 * a * c))
    hat3 = math.pi - hat1 - hat2
    return (math.pi - hat1, math.pi - hat2, math.pi - hat3)


# ---------------------------------------------------------------------------
# Serialization


def partition_to_json(part: PolygonalPartition) -> dict:
    segs = []
    rays = []
    for el in part.elements:
        if isinstance(el, Segment):
            segs.append(
                {
                    "phase_i": el.phase_i,
                    "phase_j": el.phase_j,
                    "endpoints": [el.p0.tolist(), el.p1.tolist()],
                }
            )
        else:
            rays.append(
                {
                    "phase_i": el.phase_i,
                    "phase_j": el.phase_j,
                    "origin": el.origin.tolist(),
                    "direction": el.direction.tolist(),
                }
            )
    return {"phases": part.phases, "segments": segs, "rays": rays}


def _finite_point(value, what: str) -> np.ndarray:
    """``value`` as a finite [x, y]; PartitionError naming ``what`` otherwise."""
    try:
        p = np.asarray(value, dtype=np.float64) if _numbers(value) else np.empty(0)
    except ValueError:  # ragged
        p = np.empty(0)
    if p.shape != (2,) or not np.all(np.isfinite(p)):
        raise PartitionError(f"{what} must be a finite point [x, y]; got {value!r}")
    return p


def _whole(value, what: str) -> int:
    """``value`` as an int; PartitionError naming ``what`` if not whole."""
    if not _integral(value):
        raise PartitionError(f"{what} must be an integer; got {value!r}")
    return int(value)


def partition_from_json(data) -> PolygonalPartition:
    """The partition that ``partition_to_json`` wrote: {"phases", "segments":
    [{"phase_i", "phase_j", "endpoints"}], "rays": [{"phase_i", "phase_j",
    "origin", "direction"}]}.  Any other key raises ValueError naming it;
    a phase count or tag that is not a whole number, and an endpoint, origin
    or direction that is not a finite [x, y], raise PartitionError naming
    the element."""
    _known_keys(data, ("phases", "segments", "rays"), "partition")
    elements: list = []
    for k, s in enumerate(data.get("segments", [])):
        _known_keys(s, ("phase_i", "phase_j", "endpoints"), "segment")
        p0, p1 = (_finite_point(s["endpoints"][e], f"segment {k} endpoint {e}") for e in (0, 1))
        elements.append(Segment(*(_whole(s[t], f"segment {k} {t}") for t in ("phase_i", "phase_j")), p0, p1))
    for k, r in enumerate(data.get("rays", [])):
        _known_keys(r, ("phase_i", "phase_j", "origin", "direction"), "ray")
        origin = _finite_point(r["origin"], f"ray {k} origin")
        d = _finite_point(r["direction"], f"ray {k} direction")
        norm = np.linalg.norm(d)
        if not (np.isfinite(norm) and norm > 0):
            raise PartitionError(f"ray {k} direction must be a finite non-zero vector")
        elements.append(Ray(*(_whole(r[t], f"ray {k} {t}") for t in ("phase_i", "phase_j")), origin, d / norm))
    return PolygonalPartition(phases=_whole(data["phases"], "phases"), elements=tuple(elements))
