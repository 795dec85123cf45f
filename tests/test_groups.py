import json

import numpy as np
import pytest

from multiwell import fields, groups, kernels, potentials


def validate_group(g, expected_order=None):
    d = g.dimension
    # orthogonality
    for mat in g.elements:
        assert np.max(np.abs(mat.T @ mat - np.eye(d))) < 1e-12
    # closure under product and inverse (1e-9 rounding key)
    keys = {tuple(np.round(mat, 9).ravel()) for mat in g.elements}
    for a in g.elements:
        assert tuple(np.round(a.T, 9).ravel()) in keys
        for b in g.elements:
            assert tuple(np.round(a @ b, 9).ravel()) in keys
    # generators are reflections
    for r in g.generators:
        assert np.max(np.abs(r @ r - np.eye(d))) < 1e-12
        assert abs(np.linalg.det(r) + 1.0) < 1e-12
    if expected_order is not None:
        assert g.order == expected_order


@pytest.mark.parametrize("k,order", [(2, 4), (3, 6), (6, 12)])
def test_dihedral_orders(k, order):
    g = groups.build_dihedral(k)
    validate_group(g, order)
    reflections = [m for m in g.elements if np.linalg.det(m) < 0]
    assert len(reflections) == k


def test_dihedral_rejects_small_k():
    with pytest.raises(ValueError):
        groups.build_dihedral(1)


def test_tetrahedral_order_and_placement(tetrahedral):
    validate_group(tetrahedral, 24)
    a1 = potentials.TETRA_A1
    assert groups.orbit_count(tetrahedral, a1) == 4
    assert groups.stabilizer(tetrahedral, a1).order == 6


def test_cubic_order(cubic):
    validate_group(cubic, 48)
    # all elements are signed permutations
    for m in cubic.elements:
        a = np.abs(m)
        assert np.all((a < 1e-12) | (np.abs(a - 1) < 1e-12))


def test_cubic_placements(cubic):
    # the six placements of a point relative to the chamber cone(s1, s2, s3)
    s1 = np.array([1.0, 1.0, 1.0])
    s2 = np.array([0.0, 1.0, 1.0])
    s3 = np.array([0.0, 0.0, 1.0])
    cases = [
        (np.zeros(3), 1),
        (0.7 * s3, 6),
        (0.7 * s1, 8),
        (0.7 * s2, 12),
        (0.4 * s2 + 0.3 * s3, 24),  # interior of a face
        (0.2 * s1 + 0.3 * s2 + 0.4 * s3, 48),  # interior of the chamber
    ]
    for p, n in cases:
        assert groups.orbit_count(cubic, p) == n


def test_orbit_stabilizer_product(cubic, tetrahedral, dihedral3):
    rng = np.random.default_rng(3)
    for g in (cubic, tetrahedral, dihedral3):
        for _ in range(5):
            p = rng.normal(size=g.dimension)
            n = groups.orbit_count(g, p)
            s = groups.stabilizer(g, p).order
            assert n * s == g.order


def test_stabilizer_is_subgroup(tetrahedral):
    stab = groups.stabilizer(tetrahedral, potentials.TETRA_A1)
    validate_group(stab)
    assert stab.order == 6


def test_stabilizer_cases(cubic, dihedral3):
    assert groups.stabilizer(cubic, np.zeros(3)).order == 48
    assert groups.stabilizer(dihedral3, np.array([0.37, 0.21])).order == 1


def test_region_map_searches_match_elementwise_loop(tetrahedral, triangle_region):
    # the vectorized element searches against a loop over the lex-sorted
    # elements, whose first hit is the lex-smallest element
    def carries(g, src, dst):
        return all(np.linalg.norm(g @ a - b) <= groups.POINT_TOL for a, b in zip(src, dst))

    def first(grp, src, dst):
        return next((g for g in grp.elements if carries(g, src, dst)), None)

    for rm in (triangle_region, groups.build_region_map(tetrahedral, potentials.TETRA_A1)):
        grp, wells = rm.group, rm.wells
        for w, rep in zip(wells, rm.coset_reps):
            assert np.array_equal(rep, first(grp, [wells[0]], [w]))
        for adj in range(1, rm.orbit_size):
            pair = wells[[0, adj]]
            loop = [g for g in grp.elements if carries(g, pair, pair)]
            assert np.array_equal(rm.pair_stabilizer_elements(adj), np.array(loop))
            for i in range(rm.orbit_size):
                for j in range(rm.orbit_size):
                    ref = first(grp, pair, wells[[i, j]])
                    if ref is None:
                        with pytest.raises(ValueError):
                            rm.pair_rep(i, j, adj)
                    else:
                        assert np.array_equal(rm.pair_rep(i, j, adj), ref)


def test_fundamental_region_tiles(cubic, tetrahedral, dihedral3):
    rng = np.random.default_rng(11)
    for g in (cubic, tetrahedral, dihedral3):
        region = g.fundamental_region
        for _ in range(20):
            x = rng.normal(size=g.dimension)
            # some translate lands in the closed region
            hits = [m for m in g.elements if region.contains_closure(m @ x)]
            assert hits
        # no two interior points of the region are group-related
        for _ in range(10):
            x = rng.normal(size=g.dimension)
            best = max(g.elements, key=lambda m: region.min_wall_dot(m @ x))
            y = best @ x
            if not region.contains(y, tol=1e-6):
                continue
            for m in g.elements:
                if np.linalg.norm(m @ y - y) > 1e-9:
                    assert not region.contains(m @ y, tol=1e-9)


def test_symmetrize_fixes_equivariant_input(dihedral3):
    grid = fields.Grid(dim=2, half_width=2.0, points=41)
    ident = fields.field_from_function(grid, lambda p: p, 2)  # u(x) = x is equivariant
    out = groups.symmetrize(ident, dihedral3)
    assert np.max(np.abs(out.values - ident.values)) < 1e-12


def test_symmetrize_constant_field(dihedral3, cubic):
    # full-orbit average of a constant; the dihedral-3 average is zero
    grid = fields.Grid(dim=2, half_width=2.0, points=41)
    c = np.array([0.7, -0.3])
    out = groups.symmetrize(fields.constant_field(grid, c), dihedral3)
    inner = np.linalg.norm(grid.nodes, axis=1) <= 1.8
    assert np.max(np.abs(out.flat()[inner])) < 1e-14
    grid3 = fields.Grid(dim=3, half_width=1.0, points=9)
    c3 = np.array([0.2, 0.5, -0.1])
    out3 = groups.symmetrize(fields.constant_field(grid3, c3), cubic)
    expect = np.mean([m.T @ c3 for m in cubic.elements], axis=0)
    assert np.max(np.abs(out3.flat() - expect)) < 1e-14


def _smooth_random(grid, seed=7):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.5, 1.5, (5, 2))
    amps = rng.normal(size=(5, 2))
    widths = rng.uniform(0.5, 1.2, 5)

    def fn(pts):
        out = np.zeros((pts.shape[0], 2))
        for c, a, w in zip(centers, amps, widths):
            out += np.exp(-np.sum((pts - c) ** 2, axis=1) / w**2)[:, None] * a
        return out

    return fields.field_from_function(grid, fn, 2)


def test_symmetrize_residual_second_order(dihedral3):
    res = []
    for P in (41, 81):
        grid = fields.Grid(dim=2, half_width=2.0, points=P)
        out = groups.symmetrize(_smooth_random(grid), dihedral3)
        res.append(groups.equivariance_residual(out, dihedral3))
    assert res[0] / res[1] > 2.5  # O(h^2) decay under refinement


def test_symmetrize_idempotent(dihedral3, cubic):
    grid = fields.Grid(dim=2, half_width=2.0, points=81)
    s1 = groups.symmetrize(_smooth_random(grid), dihedral3)
    s2 = groups.symmetrize(s1, dihedral3)
    inner = (np.linalg.norm(grid.nodes, axis=1) <= 0.9 * 2.0).reshape(grid.shape)
    assert np.max(np.abs((s2.values - s1.values)[inner])) < 1e-10 + 0.01
    # box-preserving action: idempotence is exact even for rough data
    grid3 = fields.Grid(dim=3, half_width=1.0, points=11)
    rng = np.random.default_rng(5)
    rf = fields.VectorField(grid3, rng.normal(size=grid3.shape + (3,)))
    s1 = groups.symmetrize(rf, cubic)
    s2 = groups.symmetrize(s1, cubic)
    assert np.max(np.abs(s2.values - s1.values)) < 1e-10


def test_equivariance_residual_witness(dihedral3):
    grid = fields.Grid(dim=2, half_width=2.0, points=41)
    ident = fields.field_from_function(grid, lambda p: p, 2)
    broken = ident.copy()
    broken.values[20, 25] += 0.5  # interior node, inside the measurement ball
    assert groups.equivariance_residual(broken, dihedral3) > 0.01
    # odd scalar-style field under the sign-flip pair action
    pairs = fields.reflection_pairs(2, 2, x_axis=0, u_axis=0)
    odd = fields.field_from_function(grid, lambda p: np.stack([p[:, 0] ** 3, 0 * p[:, 0]], axis=1), 2)
    assert fields.equivariance_residual_pairs(odd, pairs) < 1e-12


def _full_box_equivariance(field, pairs) -> float:
    """Reference: every pair, the identity included, evaluated at every node
    of the box (box-preserving elements by gathering the node nearest to
    g x, the others by interpolation); the maximum is then taken over the
    measured nodes."""
    g = field.grid
    pts = g.nodes
    if all(fields._box_preserving(gx) for gx, _ in pairs):
        sel = np.ones(pts.shape[0], dtype=bool)
    else:
        sel = np.linalg.norm(pts, axis=1) <= fields.SYM_MEASURE_FRAC * g.half_width + fields.BOX_EDGE_TOL
    worst = 0.0
    for gx, gu in pairs:
        if fields._box_preserving(gx):
            idx = np.rint((pts @ gx.T + g.half_width) / g.spacing).astype(int)
            lhs = field.flat()[np.ravel_multi_index(tuple(idx.T), g.shape)]
        else:
            lhs = kernels.interp(field.values, pts @ gx.T, -g.half_width, g.spacing)
        diff = np.sqrt(np.sum((lhs - field.flat() @ gu.T) ** 2, axis=1))
        worst = max(worst, float(diff[sel].max()))
    return worst


@pytest.mark.parametrize("action", sorted(groups.GROUP_BUILDERS) + ["reflection_pairs"])
def test_equivariance_residual_matches_full_box_reference(action):
    # measuring only the selected nodes, skipping the identity pair and
    # reading node images as views change no bit of the result
    if action == "reflection_pairs":
        dim, pairs = 2, fields.reflection_pairs(2, 1)
    else:
        grp = groups.get_group(action)
        dim, pairs = grp.dimension, fields.as_pairs(grp)
    grid = fields.Grid(dim=dim, half_width=4.0, points=17 if dim == 3 else 33)
    m = pairs[0][1].shape[0]
    rng = np.random.default_rng(3)
    rough = fields.VectorField(grid, rng.normal(size=grid.shape + (m,)))
    smooth = fields.VectorField(grid, np.sin(grid.nodes @ rng.normal(size=(dim, m))).reshape(grid.shape + (m,)))
    for field in (rough, smooth, fields.symmetrize_pairs(smooth, pairs)):
        assert fields.equivariance_residual_pairs(field, pairs) == _full_box_equivariance(field, pairs)


def test_region_of_labels(tetrahedral, triangle_region):
    rm_t = groups.build_region_map(tetrahedral, potentials.TETRA_A1)
    # base well and its images resolve to the right cosets
    idx, rep = rm_t.region_of(potentials.TETRA_A1)
    assert idx == 0 and np.allclose(rep @ potentials.TETRA_A1, potentials.TETRA_A1)
    some_g = tetrahedral.elements[17]
    idx, rep = rm_t.region_of(some_g @ potentials.TETRA_A1)
    assert np.allclose(rep @ rm_t.wells[0], some_g @ potentials.TETRA_A1, atol=1e-9)
    # generators of the base region lie on its closure: identity coset by tie-break
    s = np.sqrt(2.0 / 3.0)
    t = 1.0 / np.sqrt(3.0)
    for v in ([0, s, t], [0, -s, t], [s, 0, -t]):
        idx, rep = rm_t.region_of(np.array(v, dtype=float))
        assert idx == 0
        assert np.allclose(rep @ rm_t.wells[0], rm_t.wells[0], atol=1e-9)


def test_region_partition_counts(triangle_region):
    # translates of the base region partition the plane: labels hit every well
    rng = np.random.default_rng(2)
    seen = set()
    for _ in range(200):
        x = rng.normal(size=2)
        idx, _ = triangle_region.region_of(x)
        seen.add(idx)
    assert seen == {0, 1, 2}
    assert triangle_region.orbit_size == 3
    assert triangle_region.stabilizer.order == 2  # base well sits on a mirror


def test_wall_distance(triangle_region):
    # on the bisector of the base region the wall distance is |x| sin(60 deg)
    for t in (0.5, 1.0, 3.0):
        d = triangle_region.wall_distance(np.array([t, 0.0]))
        assert np.isclose(d, t * np.sqrt(3.0) / 2.0, rtol=1e-12)


def test_group_json_roundtrip(tetrahedral):
    data = json.loads(json.dumps(groups.group_to_json(tetrahedral)))
    g2 = groups.group_from_json(data)
    assert g2.order == tetrahedral.order
    assert np.allclose(g2.elements, tetrahedral.elements)
    assert g2.name == tetrahedral.name
