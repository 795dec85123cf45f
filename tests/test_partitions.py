import math
import re

import numpy as np
import pytest

from multiwell import partitions as pt


# ---------------------------------------------------------------------------
# Weighted Steiner point


def equilateral(side=1.0):
    h = side * math.sqrt(3.0) / 2.0
    return pt.WeightedTriangle(
        A=[0.0, h * 2 / 3], B=[side / 2, -h / 3], C=[-side / 2, -h / 3], e12=1.0, e13=1.0, e23=1.0
    )


def test_equilateral_equal_weights_centroid():
    tri = equilateral()
    P, info = pt.steiner_point(tri)
    assert info["converged"] and not info["captured"]
    assert np.allclose(P, [0.0, 0.0], atol=1e-12)
    assert pt.first_order_residual(P, tri.vertices, tri.weights) <= 1e-12
    # the three pull directions meet at 120 degrees
    nus = (tri.vertices - P) / np.linalg.norm(tri.vertices - P, axis=1)[:, None]
    for i in range(3):
        c = float(nus[i] @ nus[(i + 1) % 3])
        assert c == pytest.approx(-0.5, abs=1e-12)


def test_obtuse_vertex_capture():
    # equal weights and a 150-degree angle at C: the minimizer is the vertex
    ang = math.radians(150.0)
    C = np.zeros(2)
    A = np.array([1.0, 0.0])
    B = np.array([math.cos(ang), math.sin(ang)])
    tri = pt.WeightedTriangle(A=A, B=B, C=C, e12=1.0, e13=1.0, e23=1.0)
    P, info = pt.steiner_point(tri)
    assert info["captured"] and info["vertex"] == 2
    assert np.allclose(P, C)
    assert pt.first_order_residual(P, tri.vertices, tri.weights) == 0.0


def test_interior_when_largest_angle_below_120():
    ang = math.radians(110.0)
    tri = pt.WeightedTriangle(
        A=[1.0, 0.0], B=[math.cos(ang), math.sin(ang)], C=[0.0, 0.0], e12=1.0, e13=1.0, e23=1.0
    )
    P, info = pt.steiner_point(tri)
    assert not info["captured"] and info["converged"]
    assert min(np.linalg.norm(tri.vertices - P, axis=1)) > 1e-3


def _brute_force(tri, n=2000, margin=0.2):
    verts = tri.vertices
    lo = verts.min(axis=0) - margin
    hi = verts.max(axis=0) + margin
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    total = np.zeros_like(X)
    for v, w in zip(verts, tri.weights):
        total += w * np.hypot(X - v[0], Y - v[1])
    i, j = np.unravel_index(np.argmin(total), total.shape)
    cell = np.array([xs[1] - xs[0], ys[1] - ys[0]])
    return np.array([xs[i], ys[j]]), cell


def _capture_margin(tri):
    """min over vertices of |pull from the others| - own weight: positive with
    a margin means the minimizer is interior and the objective is uniformly
    convex there, so a grid scan resolves its location.  Near-zero or captured
    instances have a flat valley no finite grid localizes."""
    margins = []
    for i in range(3):
        pull = np.zeros(2)
        for j in range(3):
            if j != i:
                dv = tri.vertices[j] - tri.vertices[i]
                pull += tri.weights[j] * dv / np.linalg.norm(dv)
        margins.append(np.linalg.norm(pull) - tri.weights[i])
    return min(margins)


def random_steiner_instances(count=20, seed=12):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        verts = rng.uniform(-1.0, 1.0, (3, 2))
        a = np.linalg.norm(verts[1] - verts[2])
        b = np.linalg.norm(verts[0] - verts[2])
        c = np.linalg.norm(verts[0] - verts[1])
        if min(a, b, c) < 0.3:
            continue
        w = rng.uniform(0.5, 2.0, 3)
        if not (w[0] < w[1] + w[2] and w[1] < w[0] + w[2] and w[2] < w[0] + w[1]):
            continue
        tri = pt.WeightedTriangle(A=verts[0], B=verts[1], C=verts[2], e12=w[0], e13=w[1], e23=w[2])
        if _capture_margin(tri) < 0.05:
            continue  # flat near-transition instances are unresolvable on a grid
        out.append(tri)
    return out


def test_random_instances_match_brute_force():
    for tri in random_steiner_instances():
        P, info = pt.steiner_point(tri)
        bf, cell = _brute_force(tri)
        assert np.all(np.abs(P - bf) <= 2 * cell + 1e-12)
        # and the returned point dominates the full grid scan
        assert pt.weighted_sum(P, tri) <= pt.weighted_sum(bf, tri) + 1e-10


def test_steiner_minimality_against_probes():
    rng = np.random.default_rng(77)
    tri = pt.WeightedTriangle(A=[0.9, 0.1], B=[-0.4, 0.8], C=[-0.2, -0.7], e12=1.3, e13=0.9, e23=1.1)
    P, info = pt.steiner_point(tri)
    best = pt.weighted_sum(P, tri)
    probes = rng.uniform(-1.2, 1.2, (1000, 2))
    assert all(pt.weighted_sum(q, tri) >= best - 1e-10 for q in probes)


def test_first_order_residual_witness():
    tri = equilateral()
    assert pt.first_order_residual(np.array([0.3, 0.2]), tri.vertices, tri.weights) > 0.1


def test_nonpositive_weight_rejected():
    with pytest.raises(pt.PartitionError):
        pt.WeightedTriangle(A=[0, 0], B=[1, 0], C=[0, 1], e12=1.0, e13=-1.0, e23=1.0)


def test_coincident_vertices_rejected():
    # the residual at B would divide 0/0 by the distance to C
    with pytest.raises(pt.PartitionError, match="vertices must be distinct"):
        pt.WeightedTriangle(A=[0, 0], B=[1, 0], C=[1, 0], e12=1.0, e13=1.0, e23=1.0)


@pytest.mark.parametrize(
    "vertices, weights",
    [
        ([[0, 0], [1, 0], [0, np.nan]], [1.0, 1.0, 1.0]),
        ([[0, 0], [np.inf, 0], [0, 1]], [1.0, 1.0, 1.0]),
        ([[0, 0], [1, 0], [0, 1]], [np.inf, 1.0, 1.0]),
        ([[0, 0], [1, 0], [0, 1]], [1.0, np.nan, -1.0]),
    ],
    ids=["nan-vertex", "inf-vertex", "inf-weight", "nan-and-negative-weight"],
)
def test_non_finite_triangle_rejected(vertices, weights):
    with pytest.raises(pt.PartitionError, match="^vertices and weights must be finite$"):
        pt.WeightedTriangle(*np.asarray(vertices, dtype=float), *weights)


def test_first_order_residual_at_a_vertex_is_the_subgradient_excess():
    tri = equilateral()
    # at A the unit pulls of B and C meet at 60 degrees: |pull| = sqrt(3) > e12 = 1
    assert pt.first_order_residual(tri.A, tri.vertices, tri.weights) == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-15)


def _reference_residual(P, verts, wts):
    d = np.linalg.norm(verts - P[None, :], axis=1)
    at = np.flatnonzero(d <= 1e-12)
    if at.size:
        i = int(at[0])
        pull = sum(wts[j] * (verts[j] - P) / d[j] for j in range(3) if j != i)
        return max(0.0, float(np.linalg.norm(pull)) - wts[i])
    return float(np.linalg.norm(wts @ ((verts - P[None, :]) / d[:, None])))


def _reference_weiszfeld(tri, tol, max_iter=200_000):
    """Vertex capture by the subgradient test, else Weiszfeld from the
    weighted centroid on numpy 2-vectors, stopped once the residual is <= tol."""
    verts, wts = tri.vertices, tri.weights
    for i in range(3):
        pull = sum(
            wts[j] * (verts[j] - verts[i]) / np.linalg.norm(verts[j] - verts[i]) for j in range(3) if j != i
        )
        if np.linalg.norm(pull) <= wts[i] + 1e-14:
            return verts[i], {"captured": True, "vertex": i, "converged": True, "iterations": 0}
    P = (wts @ verts) / wts.sum()
    it = 0
    res = _reference_residual(P, verts, wts)
    while res > tol and it < max_iter:
        d = np.linalg.norm(verts - P[None, :], axis=1)
        if np.any(d <= 1e-15):
            P = P + 1e-12
            d = np.linalg.norm(verts - P[None, :], axis=1)
        w = wts / d
        P = (w @ verts) / w.sum()
        res = _reference_residual(P, verts, wts)
        it += 1
    return P, {"captured": False, "vertex": None, "converged": res <= tol, "iterations": it}


def near_capture_instances(count=24, seed=31):
    """Triangles within 0.05 of the capture transition on either side: the
    ones random_steiner_instances skips, where Weiszfeld is slowest."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        verts = rng.uniform(-1.0, 1.0, (3, 2))
        w = rng.uniform(0.5, 2.0, 3)
        tri = pt.WeightedTriangle(A=verts[0], B=verts[1], C=verts[2], e12=w[0], e13=w[1], e23=w[2])
        if abs(_capture_margin(tri)) < 0.05:
            out.append(tri)
    # and four with vertex A captured by a hair: e12 exceeds the pull of B and C by 1e-9
    for tri in out[:4]:
        A, B, C = tri.vertices
        pull = tri.e13 * (B - A) / np.linalg.norm(B - A) + tri.e23 * (C - A) / np.linalg.norm(C - A)
        out.append(pt.WeightedTriangle(A=A, B=B, C=C, e12=np.linalg.norm(pull) + 1e-9, e13=tri.e13, e23=tri.e23))
    return out


def test_steiner_point_matches_reference_weiszfeld():
    instances = near_capture_instances()
    infos, ref_infos = [], []
    for tri in instances:
        P, info = pt.steiner_point(tri)
        P_ref, ref = _reference_weiszfeld(tri, tol=1e-10)
        for key in ("captured", "vertex"):
            assert info[key] == ref[key], key
        assert info["iterations"] == 0
        # the reference stops at residual 1e-10 in a flat valley
        assert np.max(np.abs(P - P_ref)) <= 1e-8
        assert pt.weighted_sum(P, tri) <= pt.weighted_sum(P_ref, tri) + 1e-15
        infos.append(info)
        ref_infos.append(ref)
    # both sides of the transition are exercised, and some rows need many reference steps
    assert any(i["captured"] for i in infos) and not all(i["captured"] for i in infos)
    assert all(i["captured"] and i["vertex"] == 0 for i in infos[-4:])
    assert max(i["iterations"] for i in ref_infos) > 1000


def _fermat_point(A, B, C):
    """Equal-weight Fermat point as the meeting point of two Simpson lines:
    each joins a vertex to the apex of the equilateral triangle erected
    outward on the opposite side."""

    def apex(X, Y, away):
        n = np.array([Y[1] - X[1], X[0] - Y[0]]) * math.sqrt(3.0) / 2.0
        m = (X + Y) / 2.0
        return m - n if n @ (away - m) > 0 else m + n

    a, b = apex(B, C, A), apex(A, C, B)
    s, _ = np.linalg.solve(np.column_stack([a - A, B - b]), B - A)
    return A + s * (a - A)


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-13])
def test_steiner_point_just_inside_the_capture_threshold(eps):
    # equal weights and an angle of 120 degrees - eps at C: the minimizer is
    # interior but within about eps / sqrt(3) of C
    ang = 2.0 * math.pi / 3.0 - eps
    A, C = np.array([1.0, 0.0]), np.zeros(2)
    B = np.array([math.cos(ang), math.sin(ang)])
    P, info = pt.steiner_point(pt.WeightedTriangle(A=A, B=B, C=C, e12=1.0, e13=1.0, e23=1.0))
    assert not info["captured"] and info["converged"]
    assert np.max(np.abs(P - _fermat_point(A, B, C))) <= 1e-12


def _captured_at(k):
    """Equal weights and a 150-degree angle at vertex k: captured there."""
    ang = math.radians(150.0)
    verts = np.roll(np.array([[1.0, 0.0], [math.cos(ang), math.sin(ang)], [0.0, 0.0]]), k + 1, axis=0)
    return pt.WeightedTriangle(*verts, 1.0, 1.0, 1.0)


def test_steiner_points_match_one_row_calls_bitwise():
    ang = 2.0 * math.pi / 3.0 - 1e-13  # interior, but within 1e-12 of C
    near_vertex = pt.WeightedTriangle(
        A=[1.0, 0.0], B=[math.cos(ang), math.sin(ang)], C=[0.0, 0.0], e12=1.0, e13=1.0, e23=1.0
    )
    tris = [_captured_at(k) for k in range(3)] + random_steiner_instances(count=6)
    tris += near_capture_instances() + [near_vertex]
    tris = [tris[i] for i in np.random.default_rng(5).permutation(len(tris))]
    P, vertex, residual = pt.steiner_points(
        np.stack([t.vertices for t in tris]), np.stack([t.weights for t in tris])
    )
    assert set(vertex.tolist()) == {-1, 0, 1, 2}
    for k, tri in enumerate(tris):
        P1, info = pt.steiner_point(tri)
        assert np.array_equal(P[k], P1)
        assert vertex[k] == (-1 if info["vertex"] is None else info["vertex"])
        assert residual[k] == info["residual"]
    # the near-vertex row takes the residual's at-vertex branch
    k = next(k for k, t in enumerate(tris) if t is near_vertex)
    assert vertex[k] == -1 and np.hypot(*(P[k] - near_vertex.C)) <= 1e-12


def test_steiner_points_rejects_a_bad_row():
    tri = equilateral()
    V = np.stack([tri.vertices, tri.vertices])
    w = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    with pytest.raises(pt.PartitionError, match="^row 1: weights must be positive$"):
        pt.steiner_points(V, w)
    with pytest.raises(pt.PartitionError, match="expected vertices"):
        pt.steiner_points(V[:, :2], w)


# ---------------------------------------------------------------------------
# Young angles


def test_young_angles_equal_weights():
    th = pt.young_angles(1.0, 1.0, 1.0)
    for t in th:
        assert t == pytest.approx(2 * math.pi / 3, abs=1e-15)
    assert sum(th) == pytest.approx(2 * math.pi, abs=1e-12)


def test_young_angles_right_isoceles():
    # tension triangle with sides (1, 1, sqrt(2)): hat angles 45/45/90
    th = pt.young_angles(math.sqrt(2.0), 1.0, 1.0)
    # e12 = sqrt(2) is opposite hat3 = 90 deg, so theta3 = 90 deg
    assert math.degrees(th[0]) == pytest.approx(135.0, abs=1e-10)
    assert math.degrees(th[1]) == pytest.approx(135.0, abs=1e-10)
    assert math.degrees(th[2]) == pytest.approx(90.0, abs=1e-10)
    assert sum(th) == pytest.approx(2 * math.pi, abs=1e-12)


def test_young_angles_triangle_inequality_violation():
    with pytest.raises(pt.PartitionError, match="e12"):
        pt.young_angles(3.0, 1.0, 1.0)


def test_young_law_of_sines():
    e12, e13, e23 = 1.2, 0.8, 1.0
    th = pt.young_angles(e12, e13, e23)
    hats = [math.pi - t for t in th]
    ratios = [math.sin(hats[0]) / e23, math.sin(hats[1]) / e13, math.sin(hats[2]) / e12]
    assert max(ratios) - min(ratios) < 1e-12


# ---------------------------------------------------------------------------
# Tension matrices and the metric reduction


def test_tension_matrix_validation():
    with pytest.raises(pt.PartitionError):
        pt.TensionMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(pt.PartitionError):
        pt.TensionMatrix(np.array([[0.0, 0.0], [0.0, 0.0]]))  # zero off-diagonal


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_tension_matrix_rejects_non_finite_entries(value):
    # named before the symmetry check, whose inf - inf would warn
    e = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, value], [1.0, value, 0.0]])
    with pytest.raises(pt.PartitionError, match=r"tension entry \(1, 2\) must be finite"):
        pt.TensionMatrix(e)


def _tensions(*vals, n=3):
    e = np.zeros((n, n))
    idx = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), v in zip(idx, vals):
        e[i, j] = e[j, i] = v
    return pt.TensionMatrix(e)


def test_metric_reduce_crossing_value():
    # (e12, e13, e23) = (1, 3, 1): the 1-3 interface reroutes through phase 2
    t = _tensions(1.0, 3.0, 1.0)
    assert not t.is_strictly_metric()
    red = pt.metric_reduce(t)
    assert red[0, 2] == pytest.approx(2.0)
    assert red[0, 1] == 1.0 and red[1, 2] == 1.0


def test_metric_reduce_idempotent_and_dominated():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = rng.integers(3, 6)
        vals = rng.uniform(0.2, 3.0, n * (n - 1) // 2)
        t = _tensions(*vals, n=n)
        red = pt.metric_reduce(t)
        red2 = pt.metric_reduce(red)
        assert np.allclose(red2.e, red.e)
        assert np.all(red.e <= t.e + 1e-15)
        assert not (red.e > t.e).any()


def test_metric_reduce_chain():
    # 4 phases in a chain: the 1-4 tension collapses to the chain sum
    e = np.full((4, 4), 10.0)
    np.fill_diagonal(e, 0.0)
    for i in range(3):
        e[i, i + 1] = e[i + 1, i] = 1.0
    red = pt.metric_reduce(pt.TensionMatrix(e))
    assert red[0, 3] == pytest.approx(3.0)


def test_metric_reduce_keeps_metric_input():
    t = _tensions(1.0, 1.2, 0.9)
    assert t.is_strictly_metric()
    red = pt.metric_reduce(t)
    assert np.allclose(red.e, t.e)


# ---------------------------------------------------------------------------
# Partition energies, densities, cones


def unit_tensions(n=3):
    e = np.ones((n, n)) - np.eye(n)
    return pt.TensionMatrix(e)


def test_line_energy_and_density():
    line = pt.line_partition()
    w = pt.disk([0.0, 0.0], 1.0)
    assert pt.partition_energy(line, unit_tensions(2), w) == pytest.approx(2.0, abs=1e-12)
    for r in np.linspace(0.1, 3.0, 10):
        assert pt.density(line, [0.0, 0.0], r) == pytest.approx(1.0, abs=1e-12)
    # off the interface: zero density for small balls
    assert pt.density(line, [0.5, 0.5], 0.2) == 0.0


def test_triod_energy_and_density():
    tri = pt.triod()
    w = pt.disk([0.0, 0.0], 1.0)
    assert pt.partition_energy(tri, unit_tensions(3), w) == pytest.approx(3.0, abs=1e-12)
    for r in np.linspace(0.1, 3.0, 10):
        assert pt.density(tri, [0.0, 0.0], r) == pytest.approx(1.5, abs=1e-12)


def test_make_cone_properties():
    cone = pt.make_cone([0.0, 0.0], [[1, 0], [-0.5, 0.8], [-0.5, -0.8]])
    for r in (0.3, 1.0, 2.5):
        assert pt.density(cone, [0.0, 0.0], r) == pytest.approx(1.5, abs=1e-12)
    # dilation about the vertex leaves a cone invariant
    scaled = cone.translated_scaled([0.0, 0.0], 2.0)
    w = pt.disk([0.0, 0.0], 1.0)
    assert pt.hausdorff_distance(cone, scaled, w) < 1e-15  # 0 up to rounding
    with pytest.raises(pt.PartitionError):
        pt.make_cone([0, 0], [[1, 0]])
    with pytest.raises(pt.PartitionError):
        pt.make_cone([0, 0], [[1, 0], [1, 0]])


def test_double_junction_energies():
    # window radius 1, junction separation 0.4: energies computed analytically
    d = 0.2
    R = 1.0
    dj = pt.double_junction(2 * d)
    merged = pt.merged_competitor(2 * d, R)
    xc = pt.x_cone()
    w = pt.disk([0.0, 0.0], R)
    t = unit_tensions(3)
    ell = (-d + math.sqrt(4 * R * R - 3 * d * d)) / 2.0
    e_dj = pt.partition_energy(dj, t, w)
    assert e_dj == pytest.approx(2 * d + 4 * ell, abs=1e-12)
    e_merged = pt.partition_energy(merged, t, w)
    assert e_merged == pytest.approx(2 * 2 * (d + ell / 2.0), abs=1e-12)
    e_x = pt.partition_energy(xc, t, w)
    assert e_x == pytest.approx(4.0, abs=1e-12)
    # connectedness comparison: the disconnected-phase double junction loses
    assert e_dj > e_merged
    # and the X cone loses to the split double junction (it is not minimizing)
    assert e_x > e_dj


def _triod_phase(x, y):
    # sectors 1, 2, 3 counterclockwise from the ray along x2
    t = math.degrees(math.atan2(y, x)) % 360.0
    return 1 if 90.0 < t < 210.0 else 2 if 210.0 < t < 330.0 else 3


def _x_phase(x, y, d=0.0):
    # phase 1 in the outer sectors of the junctions at (+-d, 0), 2 on top, 3 below
    return 1 if abs(x) - d > abs(y) / math.sqrt(3.0) else 2 if y > 0 else 3


def _merged_phase(x, y, s=0.4, R=1.0):
    # phase 1 through the middle, 2 above the upper chord, 3 below the lower
    d = s / 2.0
    top = (-d + math.sqrt(4 * R * R - 3 * d * d)) / 2.0 * math.sqrt(3.0) / 2.0
    return 2 if y > top else 3 if y < -top else 1


@pytest.mark.parametrize(
    "part, phase",
    [
        (pt.triod(), _triod_phase),
        (pt.line_partition(), lambda x, y: 2 if y > 0 else 1),
        (pt.double_junction(0.4), lambda x, y: _x_phase(x, y, 0.2)),
        (pt.x_cone(), _x_phase),
        (pt.merged_competitor(0.4, 1.0), _merged_phase),
    ],
    ids=["triod", "line", "double-junction", "x-cone", "merged"],
)
def test_phase_j_lies_counterclockwise_of_every_element(part, phase):
    for el in part.elements:
        if isinstance(el, pt.Segment):
            mid, d = 0.5 * (el.p0 + el.p1), el.p1 - el.p0
        else:  # a ray's point at unit distance from its origin
            mid, d = el.origin + el.direction, el.direction
        ccw = 1e-3 * np.array([-d[1], d[0]]) / np.linalg.norm(d)
        assert phase(*(mid + ccw)) == el.phase_j, el
        assert phase(*(mid - ccw)) == el.phase_i, el


def test_double_junction_density_monotone():
    dj = pt.double_junction(0.5)
    radii = np.linspace(0.05, 2.0, 15)
    dens = [pt.density(dj, [0.0, 0.0], float(r)) for r in radii]
    assert all(b >= a - 1e-12 for a, b in zip(dens, dens[1:]))
    assert dens[0] == pytest.approx(1.0, abs=1e-12)  # only the middle segment
    assert dens[-1] < 2.0  # approaches the X-cone density from below


def test_blow_down_double_junction_to_x_cone():
    s = 0.5
    dj = pt.double_junction(s)
    scales = [1.0, 0.5, 0.25, 0.125, 0.0625]
    seq = pt.blow_down(dj, [0.0, 0.0], scales)
    w = pt.disk([0.0, 0.0], 1.0)
    xc = pt.x_cone()
    dists = [pt.hausdorff_distance(q, xc, w) for q in seq]
    for mu, dist in zip(scales, dists):
        # the outer rays are the cone's shifted by s mu / 2 along the axis
        assert dist == pytest.approx(s * mu * math.sqrt(3.0) / 4.0, rel=1e-12, abs=0)
        assert dist <= s * mu + 5e-3
    assert dists[-1] < dists[0]


def test_blow_down_fixes_cones():
    tri = pt.triod()
    seq = pt.blow_down(tri, [0.0, 0.0], [1.0, 0.5, 0.25])
    w = pt.disk([0.0, 0.0], 1.0)
    for q in seq:
        assert pt.hausdorff_distance(tri, q, w) < 1e-15  # 0 up to rounding
    line = pt.line_partition()
    seq = pt.blow_down(line, [0.0, 0.0], [1.0, 0.25])
    for q in seq:
        assert pt.hausdorff_distance(line, q, w) < 1e-15


def _oracle_distance(p, el) -> float:
    """Distance from the point p to a segment or ray, on Python floats."""
    px, py = p
    if isinstance(el, pt.Segment):
        (ox, oy), (vx, vy) = el.p0.tolist(), (el.p1 - el.p0).tolist()
        L2 = vx * vx + vy * vy
        t = 0.0 if L2 == 0 else min(max(((px - ox) * vx + (py - oy) * vy) / L2, 0.0), 1.0)
    else:
        (ox, oy), (vx, vy) = el.origin.tolist(), el.direction.tolist()
        t = max((px - ox) * vx + (py - oy) * vy, 0.0)
    ex, ey = px - (ox + t * vx), py - (oy + t * vy)
    return math.sqrt(ex * ex + ey * ey)


def _oracle_samples(part, window, step):
    """The points o + k step v (k = 0, 1, ...) inside the window: up to a
    segment's end plus step/2, or on a ray up to a step past the window."""
    (cx, cy), R = window.center.tolist(), window.radius
    pts = []
    for el in part.elements:
        if isinstance(el, pt.Segment):
            (ox, oy), (vx, vy) = el.p0.tolist(), (el.p1 - el.p0).tolist()
            hi = math.hypot(vx, vy)
            if hi == 0:
                continue
            vx, vy = vx / hi, vy / hi
        else:
            (ox, oy), (vx, vy) = el.origin.tolist(), el.direction.tolist()
            hi = (cx - ox) * vx + (cy - oy) * vy + R + step
            if hi <= 0:
                continue
        for k in range(math.ceil((hi + step / 2) / step)):
            p = (ox + k * step * vx, oy + k * step * vy)
            if math.hypot(p[0] - cx, p[1] - cy) <= R:
                pts.append(p)
    return pts


def _oracle_hausdorff(a, b, window, step) -> float:
    """The Hausdorff distance of the dense samples against exact element
    distances, on Python floats."""
    pa, pb = _oracle_samples(a, window, step), _oracle_samples(b, window, step)
    if not pa or not pb:
        return math.inf

    def directed(pts, other):
        return max(min(_oracle_distance(p, el) for el in other.elements) for p in pts)

    return max(directed(pa, b), directed(pb, a))


def _outside_elements(rng):
    """A zero-length segment, a ray that starts outside the unit window and
    points away from it, and a segment entirely outside it."""
    a = rng.uniform(0.0, 2.0 * math.pi, 2)
    u = np.array([math.cos(a[0]), math.sin(a[0])])
    p = rng.uniform(-0.8, 0.8, 2)
    far = 4.0 * u
    return [
        pt.Segment(1, 2, p, p.copy()),
        pt.Ray(1, 3, 3.0 * u, u),
        pt.Segment(2, 3, far, far + np.array([math.cos(a[1]), math.sin(a[1])])),
    ]


def _random_partition(rng):
    def unit():
        t = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([math.cos(t), math.sin(t)])

    elements = _outside_elements(rng)
    elements += [pt.Segment(1, 2, rng.uniform(-1.2, 1.2, 2), rng.uniform(-1.2, 1.2, 2)) for _ in range(3)]
    elements += [pt.Ray(2, 3, rng.uniform(-1.2, 1.2, 2), unit()) for _ in range(2)]
    return pt.PolygonalPartition(phases=3, elements=tuple(elements))


def test_hausdorff_bracketed_by_dense_oracle():
    # samples overshoot a segment's end by up to step/2, and every point of a
    # piece inside the window (these are all longer than a step) is within a
    # step of a sample inside it
    step = 1e-3
    rng = np.random.default_rng(2024)
    for _ in range(4):
        a, b = _random_partition(rng), _random_partition(rng)
        w = pt.disk(rng.uniform(-0.2, 0.2, 2), 1.0)
        got = pt.hausdorff_distance(a, b, w)
        assert 0.0 < got < math.inf
        oracle = _oracle_hausdorff(a, b, w, step)
        assert oracle <= got + step / 2 and got <= oracle + step
    # nothing of an all-outside partition lies inside the window
    empty = pt.PolygonalPartition(phases=3, elements=tuple(_outside_elements(rng)))
    w = pt.disk([0.0, 0.0], 1.0)
    assert pt.hausdorff_distance(empty, pt.x_cone(), w) == math.inf
    assert pt.hausdorff_distance(pt.x_cone(), empty, w) == math.inf
    # the window is closed: a segment that touches it at (0, 1) has that point inside
    touch = pt.PolygonalPartition(phases=2, elements=(pt.Segment(1, 2, np.array([0.0, 2.0]), np.array([0.0, 1.0])),))
    stub = pt.PolygonalPartition(phases=2, elements=(pt.Segment(1, 2, np.array([0.0, 0.5]), np.array([0.0, 1.0])),))
    assert pt.hausdorff_distance(touch, stub, w) == 0.5


def _oracle_length(el, window) -> float:
    """Length of the chord of a segment or ray inside the window, on Python floats."""
    (cx, cy), R = window.center.tolist(), window.radius
    if isinstance(el, pt.Segment):
        (ox, oy), (vx, vy) = el.p0.tolist(), (el.p1 - el.p0).tolist()
        hi = math.hypot(vx, vy)
        if hi == 0:
            return 0.0
        vx, vy = vx / hi, vy / hi
    else:
        (ox, oy), (vx, vy), hi = el.origin.tolist(), el.direction.tolist(), math.inf
    b = (ox - cx) * vx + (oy - cy) * vy
    disc = b * b - ((ox - cx) ** 2 + (oy - cy) ** 2 - R * R)
    if disc <= 0:
        return 0.0
    return max(0.0, min(hi, -b + math.sqrt(disc)) - max(0.0, -b - math.sqrt(disc)))


def test_lengths_inside_the_window_match_the_chord_oracle():
    e = np.array([[0.0, 2.0, 0.5], [2.0, 0.0, 3.0], [0.5, 3.0, 0.0]])
    rng = np.random.default_rng(7)
    for _ in range(4):
        part = _random_partition(rng)
        for R in (0.3, 1.0, 2.5):
            for _ in range(3):
                w = pt.disk(rng.uniform(-0.5, 0.5, 2), R)
                lengths = [_oracle_length(el, w) for el in part.elements]
                assert pt.interface_mass(part, w) == pytest.approx(sum(lengths), abs=1e-12)
                energy = sum(e[el.phase_i - 1, el.phase_j - 1] * L for el, L in zip(part.elements, lengths))
                assert pt.partition_energy(part, pt.TensionMatrix(e), w) == pytest.approx(energy, abs=1e-12)
    # a zero-length segment, a ray pointing away from the window and a
    # segment wholly outside it have no length inside
    w = pt.disk([0.0, 0.0], 1.0)
    outside = pt.PolygonalPartition(phases=3, elements=tuple(_outside_elements(rng)))
    assert pt.interface_mass(outside, w) == 0.0
    assert pt.partition_energy(outside, pt.TensionMatrix(e), w) == 0.0
    # segments that only touch the circle, at an end or tangentially, have length 0
    for p0, p1 in (([0.0, 2.0], [0.0, 1.0]), ([-1.0, 1.0], [1.0, 1.0])):
        touch = pt.PolygonalPartition(phases=2, elements=(pt.Segment(1, 2, np.array(p0), np.array(p1)),))
        assert pt.interface_mass(touch, w) == 0.0
    empty = pt.PolygonalPartition(phases=3)
    assert pt.interface_mass(empty, w) == 0.0
    assert pt.partition_energy(empty, pt.TensionMatrix(e), w) == 0.0
    assert pt.density(empty, [0.0, 0.0], 1.0) == 0.0


def test_density_and_energy_from_one_clip_equal_the_pair():
    # bit for bit the separate density and energy, from one clip of the partition
    e = np.array([[0.0, 2.0, 0.5], [2.0, 0.0, 3.0], [0.5, 3.0, 0.0]])
    rng = np.random.default_rng(11)
    for _ in range(3):
        part = _random_partition(rng)
        for r in (0.3, 1.0, 2.5):
            x = rng.uniform(-0.5, 0.5, 2)
            pair = (pt.density(part, x, r), pt.partition_energy(part, pt.TensionMatrix(e), pt.disk(x, r)))
            assert pt.density_and_energy(part, pt.TensionMatrix(e), x, r) == pair
    with pytest.raises(pt.PartitionError):
        pt.density_and_energy(pt.triod(), unit_tensions(3), [0, 0], 0.0)
    with pytest.raises(pt.PartitionError):
        pt.density_and_energy(pt.triod(), unit_tensions(2), [0, 0], 1.0)


def test_blow_down_validates_scales():
    with pytest.raises(pt.PartitionError):
        pt.blow_down(pt.triod(), [0, 0], [0.5, 1.0])
    with pytest.raises(pt.PartitionError):
        pt.blow_down(pt.triod(), [0, 0], [1.0, -0.5])


def test_partition_energy_respects_tensions():
    tri = pt.triod()
    e = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    w = pt.disk([0.0, 0.0], 1.0)
    val = pt.partition_energy(tri, pt.TensionMatrix(e), w)
    assert val == pytest.approx(2.0 + 1.0 + 1.0, abs=1e-12)


def test_partition_energy_rejects_missing_phase():
    tri = pt.triod()
    with pytest.raises(pt.PartitionError):
        pt.partition_energy(tri, unit_tensions(2), pt.disk([0, 0], 1.0))


def test_partition_json_roundtrip():
    dj = pt.double_junction(0.5)
    data = pt.partition_to_json(dj)
    back = pt.partition_from_json(data)
    assert back.phases == dj.phases
    w = pt.disk([0.0, 0.0], 1.0)
    assert pt.interface_mass(back, w) == pytest.approx(pt.interface_mass(dj, w), abs=1e-12)


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda d: d["rays"][0].update(origin=[0, 0, 0]), "ray 0 origin"),
        (lambda d: d["rays"][1].update(direction=[0, 1, 0]), "ray 1 direction"),
        (lambda d: d["rays"][2].update(origin=[0, math.nan]), "ray 2 origin"),
        (lambda d: d["segments"][0].update(endpoints=[[0, 0], [1, 1, 1]]), "segment 0 endpoint 1"),
        (lambda d: d["segments"][0].update(endpoints=[[math.inf, 0], [1, 1]]), "segment 0 endpoint 0"),
        (lambda d: d["segments"][0].update(endpoints=[["a", 0], [1, 1]]), "segment 0 endpoint 0"),
    ],
    ids=["3d-origin", "3d-direction", "nan-origin", "3d-endpoint", "inf-endpoint", "text-endpoint"],
)
def test_partition_json_rejects_points_that_are_not_finite_pairs(edit, where):
    data = pt.partition_to_json(pt.double_junction(0.5))
    edit(data)
    with pytest.raises(pt.PartitionError, match=f"^{where} must be a finite point"):
        pt.partition_from_json(data)


@pytest.mark.parametrize(
    "edit, where, value",
    [
        (lambda d: d.update(phases=2.9), "phases", "2.9"),
        (lambda d: d.update(phases="3"), "phases", "'3'"),
        (lambda d: d["rays"][0].update(phase_i=True), "ray 0 phase_i", "True"),
        (lambda d: d["rays"][1].update(phase_j=1.5), "ray 1 phase_j", "1.5"),
        (lambda d: d["segments"][0].update(phase_j=2.99), "segment 0 phase_j", "2.99"),
        (lambda d: d["segments"][0].update(phase_i=None), "segment 0 phase_i", "None"),
        (lambda d: d["segments"][0].update(phase_i=math.inf), "segment 0 phase_i", "inf"),
    ],
    ids=["fractional-count", "text-count", "bool-tag", "fractional-ray-tag", "fractional-segment-tag",
         "null-tag", "inf-tag"],
)
def test_partition_json_rejects_counts_and_tags_that_are_not_whole_numbers(edit, where, value):
    # int() read 2.9 phases as 2 and the tags true and 2.99 as 1 and 2
    data = pt.partition_to_json(pt.double_junction(0.5))
    edit(data)
    with pytest.raises(pt.PartitionError, match=f"^{re.escape(where)} must be an integer; got {re.escape(value)}$"):
        pt.partition_from_json(data)
    # an integral float is a whole number, read as an int
    dj = pt.double_junction(0.5)
    data = pt.partition_to_json(dj)
    data["phases"] = float(data["phases"])
    data["rays"][0]["phase_i"] = float(data["rays"][0]["phase_i"])
    back = pt.partition_from_json(data)
    assert type(back.phases) is int and back.phases == dj.phases
    tags = [(el.phase_i, el.phase_j) for el in back.elements]
    assert tags == [(el.phase_i, el.phase_j) for el in dj.elements]
    assert all(type(t) is int for pair in tags for t in pair)


def test_invalid_partition_labels():
    with pytest.raises(pt.PartitionError):
        pt.PolygonalPartition(
            phases=2,
            elements=(pt.Segment(1, 3, np.zeros(2), np.ones(2)),),
        )
    with pytest.raises(pt.PartitionError):
        pt.PolygonalPartition(
            phases=2,
            elements=(pt.Segment(1, 1, np.zeros(2), np.ones(2)),),
        )
