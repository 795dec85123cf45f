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


@pytest.mark.parametrize("name", sorted(groups.GROUP_BUILDERS))
def test_box_preserving_elements_are_exact(name):
    # node images read u(g x) through the entries of g, so a signed
    # permutation must hold exactly 0 and +-1, not their rounded neighbours
    box = [g for g in groups.get_group(name).elements if fields._box_preserving(g)]
    assert box
    for g in box:
        assert set(np.unique(g)) <= {-1.0, 0.0, 1.0}, g


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


def test_symmetrize_fixes_equivariant_input():
    grid = fields.Grid(dim=2, half_width=2.0, points=41)
    ident = fields.field_from_function(grid, lambda p: p, 2)  # u(x) = x is equivariant
    out = fields.symmetrize_pairs(ident, fields.as_pairs(groups.build_dihedral(4)))
    assert np.max(np.abs(out.values - ident.values)) < 1e-12


@pytest.mark.parametrize("action", ["dihedral_3", "dihedral_6", "tetrahedral", "rotation_cycle"])
def test_symmetrize_rejects_an_action_that_rotates_the_grid(action):
    # a rotation does not map the grid nodes onto nodes: there is no node image to average
    pairs = _rotation_cycle_pairs() if action == "rotation_cycle" else fields.as_pairs(groups.get_group(action))
    grid = fields.Grid(dim=pairs[0][0].shape[0], half_width=2.0, points=9)
    field = fields.constant_field(grid, np.ones(pairs[0][1].shape[0]))
    with pytest.raises(ValueError, match="rotates the grid"):
        fields.symmetrize_pairs(field, pairs)
    with pytest.raises(ValueError, match="rotates the grid"):
        fields.node_projection(pairs)


def test_symmetrize_constant_field(cubic):
    # full-orbit average of a constant; the dihedral-4 average is zero
    grid = fields.Grid(dim=2, half_width=2.0, points=41)
    c = np.array([0.7, -0.3])
    out = fields.symmetrize_pairs(fields.constant_field(grid, c), fields.as_pairs(groups.build_dihedral(4)))
    assert np.max(np.abs(out.flat())) < 1e-14
    grid3 = fields.Grid(dim=3, half_width=1.0, points=9)
    c3 = np.array([0.2, 0.5, -0.1])
    out3 = fields.symmetrize_pairs(fields.constant_field(grid3, c3), fields.as_pairs(cubic))
    expect = np.mean([m.T @ c3 for m in cubic.elements], axis=0)
    assert np.max(np.abs(out3.flat() - expect)) < 1e-14


def test_symmetrize_idempotent(cubic):
    # node images are the stored values: idempotence is exact to summation
    # rounding even for rough data
    for grid, pairs in [
        (fields.Grid(dim=2, half_width=2.0, points=81), fields.as_pairs(groups.build_dihedral(4))),
        (fields.Grid(dim=3, half_width=1.0, points=11), fields.as_pairs(cubic)),
    ]:
        rng = np.random.default_rng(5)
        rf = fields.VectorField(grid, rng.normal(size=grid.shape + (grid.dim,)))
        s1 = fields.symmetrize_pairs(rf, pairs)
        s2 = fields.symmetrize_pairs(s1, pairs)
        assert np.max(np.abs(s2.values - s1.values)) < 1e-10


def test_equivariance_residual_witness(dihedral3):
    grid = fields.Grid(dim=2, half_width=2.0, points=41)
    ident = fields.field_from_function(grid, lambda p: p, 2)
    broken = ident.copy()
    broken.values[20, 25] += 0.5  # interior node, inside the measurement ball
    assert fields.equivariance_residual_pairs(broken, fields.as_pairs(dihedral3)) > 0.01
    # odd scalar-style field under the sign-flip pair action
    pairs = fields.reflection_pairs(2, 2, x_axis=0, u_axis=0)
    odd = fields.field_from_function(grid, lambda p: np.stack([p[:, 0] ** 3, 0 * p[:, 0]], axis=1), 2)
    assert fields.equivariance_residual_pairs(odd, pairs) < 1e-12


def _full_box_equivariance(field, pairs, sel=None) -> float:
    """Reference: every pair, the identity included, evaluated at every node
    of the box (box-preserving elements by gathering the node nearest to
    g x, the others by interpolation); the maximum is then taken over the
    nodes ``sel`` picks, by default the measured nodes."""
    g = field.grid
    pts = g.nodes
    if sel is None and all(fields._box_preserving(gx) for gx, _ in pairs):
        sel = np.ones(pts.shape[0], dtype=bool)
    elif sel is None:
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


def _equivariant_sin(grid, pairs, M) -> fields.VectorField:
    """A smooth equivariant field: the average over the action of
    g_u^{-1} sin((g_x x) M), evaluated at the exact coordinates g_x x."""
    vals = sum(np.sin(grid.nodes @ gx.T @ M) @ gu for gx, gu in pairs) / len(pairs)
    return fields.VectorField(grid, vals.reshape(grid.shape + (M.shape[1],)))


def _test_fields(action):
    """The action's pairs and three fields on a small grid: rough, smooth,
    and smooth equivariant."""
    if action == "reflection_pairs":
        dim, pairs = 2, fields.reflection_pairs(2, 1)
    else:
        grp = groups.get_group(action)
        dim, pairs = grp.dimension, fields.as_pairs(grp)
    grid = fields.Grid(dim=dim, half_width=4.0, points=17 if dim == 3 else 33)
    m = pairs[0][1].shape[0]
    rng = np.random.default_rng(3)
    rough = fields.VectorField(grid, rng.normal(size=grid.shape + (m,)))
    M = rng.normal(size=(dim, m))
    smooth = fields.VectorField(grid, np.sin(grid.nodes @ M).reshape(grid.shape + (m,)))
    return pairs, (rough, smooth, _equivariant_sin(grid, pairs, M))


ACTIONS = sorted(groups.GROUP_BUILDERS) + ["reflection_pairs"]
ROTATING = ("dihedral_3", "dihedral_6", "tetrahedral")


@pytest.mark.parametrize("action", ACTIONS)
def test_equivariance_residual_matches_full_box_reference(action):
    # measuring only the selected nodes, skipping the identity pair and
    # reading node images change no bit of the result; an action that
    # rotates the grid reads u(g_x x) as u(r_x (b_x x)) from one image per
    # coset, and r_x (b_x x) differs from g_x x by the rounding of the
    # matrix product.  Both on the measured nodes (the ball, or the box) and
    # on ``minimize``'s boundary mask, which every box-preserving b_x also
    # maps onto itself
    pairs, tested = _test_fields(action)
    bmask = ~tested[0].grid.interior_mask
    for field in tested:
        measured = fields.equivariance_residual_pairs(field, pairs)
        edge = fields._equivariance_defect(field.values, field.grid, pairs, bmask)
        if action in ROTATING:
            tol = 1e-14 * np.abs(field.values).max()
            assert measured == pytest.approx(_full_box_equivariance(field, pairs), rel=0, abs=tol)
            assert edge == pytest.approx(_full_box_equivariance(field, pairs, bmask), rel=0, abs=tol)
        else:
            assert measured == _full_box_equivariance(field, pairs)
            assert edge == _full_box_equivariance(field, pairs, bmask)


@pytest.mark.parametrize("action", ACTIONS)
def test_equivariance_residual_interpolates_once_per_coset(action, interp_calls):
    # the box-preserving elements form a subgroup with three cosets in the
    # tetrahedral group, dihedral-3 and dihedral-6: the identity's image is
    # u itself, so two images are interpolated; node-permuting actions none
    pairs, (field, _, _) = _test_fields(action)
    interp_calls.clear()
    fields.equivariance_residual_pairs(field, pairs)
    assert len(interp_calls) == (2 if action in ROTATING else 0)


@pytest.mark.parametrize("action", ACTIONS)
def test_equivariance_residual_forms_one_node_map_per_box_preserving_element(action, node_image_calls):
    # every pair reads the node map of its b_x = r_x^T g_x, formed once and
    # shared by the cosets: for an action that rotates the grid, one per
    # box-preserving element, the identity included (2, 4 and 8 for
    # dihedral-3, dihedral-6 and the tetrahedral group); for one that
    # permutes the nodes, one per pair past the identity
    pairs, (field, _, _) = _test_fields(action)
    node_image_calls.clear()
    fields.equivariance_residual_pairs(field, pairs)
    box = [gx for gx, gu in pairs
           if fields._box_preserving(gx) and (action in ROTATING or not fields._is_identity(gx, gu))]
    assert len(node_image_calls) == len(box)
    assert len({np.rint(gx).astype(int).tobytes() for gx in node_image_calls}) == len(box)
    if action in ROTATING:
        assert len(box) == {"dihedral_3": 2, "dihedral_6": 4, "tetrahedral": 8}[action]


# the benchmark's grids (dihedral-3 81^2, the slab's 101^2, tetrahedral 33^3)
# and the tier-1 tests' common sizes
@pytest.mark.parametrize("dim, points, half_width", [
    (2, 17, 2.0), (2, 33, 4.0), (2, 41, 4.0), (2, 81, 6.0), (2, 101, 5.0), (2, 161, 8.0),
    (3, 9, 1.5), (3, 17, 4.0), (3, 33, 5.0), (3, 41, 5.0),
])
def test_box_preserving_elements_map_the_measured_node_sets_onto_themselves(dim, points, half_width):
    # the equivariance measurement reads u(b_x^T y) over the picked nodes y,
    # which needs every box-preserving element of every catalog group to map
    # the measurement ball, the boundary layer and the box onto themselves
    grid = fields.Grid(dim=dim, half_width=half_width, points=points)
    number = np.arange(grid.nodes.shape[0]).reshape((1,) + grid.shape)  # one component-major column
    node_sets = {"ball": grid.measure_ball, "boundary": np.flatnonzero(~grid.interior_mask),
                 "box": np.arange(grid.nodes.shape[0])}
    checked = 0
    for name in sorted(groups.GROUP_BUILDERS):
        grp = groups.get_group(name)
        if grp.dimension != dim:
            continue
        for g in grp.elements:
            if not fields._box_preserving(g):
                continue
            image = fields._node_image(number, g).reshape(-1)
            for which, nodes in node_sets.items():
                assert np.array_equal(np.sort(image[nodes]), nodes), (name, which)
            checked += 1
    assert checked >= (8 if dim == 2 else 48)


def _rotation_cycle_pairs():
    """A non-diagonal action with m != dim: the 120-degree rotations of the
    plane, acting on R^3 by cyclic permutations of the coordinates."""
    c, s = np.cos(2.0 * np.pi / 3.0), np.sin(2.0 * np.pi / 3.0)
    rot = np.array([[c, -s], [s, c]])
    cycle = np.roll(np.eye(3), 1, axis=0)
    return [(np.linalg.matrix_power(rot, k), np.linalg.matrix_power(cycle, k)) for k in range(3)]


def test_equivariance_defect_of_a_rotation_cycling_components():
    # every element past the identity rotates the grid and is its own coset,
    # so its image is interpolated at the picked nodes, as in the reference;
    # the per-component sum over m = 3 columns on a 2D grid is bit-equal to
    # the reference's row sum, on the measurement ball and on a random node set
    pairs = _rotation_cycle_pairs()
    grid = fields.Grid(dim=2, half_width=4.0, points=33)
    rng = np.random.default_rng(11)
    rough = fields.VectorField(grid, rng.normal(size=grid.shape + (3,)))
    M = rng.normal(size=(2, 3))
    smooth = fields.VectorField(grid, np.sin(grid.nodes @ M).reshape(grid.shape + (3,)))
    sel = rng.random(grid.nodes.shape[0]) < 0.5
    for field in (rough, smooth, _equivariant_sin(grid, pairs, M)):
        assert fields.equivariance_residual_pairs(field, pairs) == _full_box_equivariance(field, pairs)
        expected = _full_box_equivariance(field, pairs, sel)
        assert fields._equivariance_defect(field.values, grid, pairs, sel) == expected


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
