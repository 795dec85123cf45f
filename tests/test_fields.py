import itertools
import json

import numpy as np
import pytest

from multiwell import connect, fields, groups, kernels, potentials

SIGMA_DW = 2.0 * np.sqrt(2.0) / 3.0


def slab_fn(pts):
    return np.tanh(pts[:, 0] / np.sqrt(2.0))[:, None]


@pytest.mark.parametrize("half_width", [float("nan"), float("inf")])
def test_grid_rejects_non_finite_half_width(half_width):
    with pytest.raises(ValueError, match="half_width"):
        fields.Grid(dim=2, half_width=half_width, points=21)


def test_grid_validation():
    with pytest.raises(ValueError):
        fields.Grid(dim=2, half_width=1.0, points=40)  # even: origin not a node
    with pytest.raises(ValueError):
        fields.Grid(dim=2, half_width=-1.0, points=41)
    g = fields.Grid(dim=2, half_width=2.0, points=41)
    assert g.spacing == pytest.approx(0.1)
    assert np.allclose(g.nodes[len(g.nodes) // 2], [0.0, 0.0])


@pytest.mark.parametrize("half_width", [0.7, 1.0, 2.5, 5.0, 6.0, 8.0, 10.3])
def test_grid_axis_is_symmetric_bit_for_bit(half_width):
    # reflections map nodes to nodes, so a node's mirror coordinate is minus
    # its own exactly; linspace alone is off by up to 1.8e-15 at 101 points
    for P in range(3, 402, 2):
        ax = fields.Grid(dim=1, half_width=half_width, points=P).axis()
        assert np.array_equal(ax, -ax[::-1])
        assert (ax[0], ax[P // 2], ax[-1]) == (-half_width, 0.0, half_width)
        assert np.allclose(ax, np.linspace(-half_width, half_width, P), rtol=0.0, atol=4e-16 * half_width)


def test_energy_constant_at_well(double_well):
    g = fields.Grid(dim=2, half_width=3.0, points=61)
    assert fields.energy(fields.constant_field(g, [1.0]), double_well) == 0.0


def test_energy_slab_area_scaling(double_well):
    # product structure: J = sigma x cross-sectional length, within 1%
    g = fields.Grid(dim=2, half_width=10.0, points=161)
    f = fields.field_from_function(g, slab_fn, 1)
    expected = SIGMA_DW * 20.0
    assert fields.energy(f, double_well) == pytest.approx(expected, rel=0.01)


def test_energy_nonnegative_random(double_well):
    g = fields.Grid(dim=2, half_width=2.0, points=21)
    rng = np.random.default_rng(0)
    f = fields.VectorField(g, rng.normal(size=g.shape + (1,)))
    assert fields.energy(f, double_well) >= 0.0


def test_energy_dimension_mismatch(double_well):
    g = fields.Grid(dim=2, half_width=2.0, points=21)
    f = fields.constant_field(g, [1.0, 0.0])
    with pytest.raises(ValueError):
        fields.energy(f, double_well)


@pytest.mark.parametrize(
    "group, name, dim, points",
    [("cubic", "ginzburg_landau_3", 3, 9), ("dihedral_4", "ginzburg_landau_2", 2, 21), (None, "double_well", 2, 21)],
    ids=["cubic", "dihedral_4", "reflection"],
)
def test_energy_invariant_under_node_permuting_actions(group, name, dim, points):
    # an action that permutes grid nodes permutes the links and the trapezoid
    # weights, so the discrete energy of every image agrees to rounding
    potential = potentials.get_potential(name)
    pairs = fields.as_pairs(groups.get_group(group)) if group else fields.reflection_pairs(2, 1)
    g = fields.Grid(dim=dim, half_width=2.0, points=points)
    u = fields.VectorField(g, np.random.default_rng(0).normal(size=g.shape + (potential.m,)))
    E = fields.energy(u, potential)
    for pair in pairs:
        image = fields.symmetrize_pairs(u, [pair])
        assert fields.energy(image, potential) == pytest.approx(E, rel=1e-12, abs=0)


def test_pde_residual_exact_well(double_well):
    g = fields.Grid(dim=2, half_width=3.0, points=61)
    assert fields.pde_residual(fields.constant_field(g, [1.0]), double_well) == 0.0


def test_pde_residual_second_order(double_well):
    vals = []
    for P in (81, 161):
        g = fields.Grid(dim=2, half_width=4.0, points=P)
        f = fields.field_from_function(g, slab_fn, 1)
        vals.append(fields.pde_residual(f, double_well))
    assert vals[0] / vals[1] >= 3.5


def test_pde_residual_witness(double_well):
    g = fields.Grid(dim=2, half_width=2.0, points=21)
    rng = np.random.default_rng(1)
    f = fields.VectorField(g, rng.normal(size=g.shape + (1,)))
    assert fields.pde_residual(f, double_well) > 1.0


@pytest.mark.parametrize("dim, m", [(1, 1), (2, 2), (3, 3), (2, 3)])
def test_residual_norm_is_bit_equal_to_the_row_sum(dim, m):
    # the squared component columns, summed in order, are numpy's row sum
    # bit for bit, and the root of the largest sum is the largest root: on
    # grids of one node, where the sup is that node's own sum, and on a
    # larger grid
    rng = np.random.default_rng(dim * 10 + m)
    for points in [1] * 300 + [15]:
        shape = (m,) + (points,) * dim  # component-major
        b = 10.0 ** rng.uniform(-9, 6) * rng.normal(size=shape)
        rows = fields.from_columns(b)
        assert fields._sup_norm(b) == np.sqrt(np.sum(rows * rows, axis=-1)).max()


@pytest.mark.parametrize(
    "dim, name", [(1, "double_well"), (2, "triple_well"), (3, "tetra_well"), (2, "tetra_well")]
)
def test_energy_gradient_is_the_descent_direction(dim, name):
    # descent is the exact gradient flow of the reported energy: the b that
    # discrete_energy returns with E is -dE/du / h^dim at interior nodes, a
    # central difference of that E, and zero on the boundary layer; its sup
    # is pde_residual's bit for bit
    pot = potentials.get_potential(name)
    g = fields.Grid(dim=dim, half_width=1.0, points=7)
    rng = np.random.default_rng(10 * dim + pot.m)
    cols = rng.normal(scale=0.5, size=(pot.m,) + g.shape)
    energy = lambda c: fields.discrete_energy(c, g.spacing, pot)[0]
    _, b = fields.discrete_energy(cols, g.spacing, pot)
    assert np.all(b.reshape(pot.m, -1)[:, ~g.interior_mask] == 0.0)
    assert fields.pde_residual(fields.VectorField(g, fields.from_columns(cols)), pot) == fields._sup_norm(b)
    eps = 1e-5
    for node in [(1,) * dim, (3,) * dim, (5, 2, 4)[:dim]]:
        expect = -(g.spacing**dim) * b[(slice(None),) + node]
        fd = np.empty(pot.m)
        for c in range(pot.m):
            up, dn = cols.copy(), cols.copy()
            up[(c,) + node] += eps
            dn[(c,) + node] -= eps
            fd[c] = (energy(up) - energy(dn)) / (2 * eps)
        assert np.linalg.norm(fd - expect) <= 1e-6 * np.linalg.norm(expect)


def _interior_random(g, m, rng):
    v = np.zeros(g.shape + (m,))
    inner = (slice(1, -1),) * g.dim
    v[inner] = rng.normal(size=v[inner].shape)
    return v


@pytest.mark.parametrize("dim, name", [(1, "double_well"), (2, "triple_well"), (3, "tetra_well")])
def test_newton_hessian_product_matches_gradient_difference(dim, name):
    # the Newton systems use the exact Hessian of the discrete energy: h^dim
    # times the product equals a central difference of h^dim (W_u - Delta_h u)
    pot = potentials.get_potential(name)
    g = fields.Grid(dim=dim, half_width=1.0, points=9)
    rng = np.random.default_rng(10 + dim)
    u = rng.normal(scale=0.5, size=g.shape + (pot.m,))
    v = _interior_random(g, pot.m, rng)
    interior = g.interior_mask.reshape(g.shape)

    def gradient(vals):
        w_u = pot.grad_field(vals.reshape(-1, pot.m)).reshape(vals.shape)
        return g.spacing**dim * (w_u - fields.from_columns(kernels.laplacian(fields.to_columns(vals), g.spacing)))

    eps = 1e-6
    fd = (gradient(u + eps * v) - gradient(u - eps * v)) / (2 * eps)
    product = fields._hessian_product(fields.to_columns(u), pot, g.spacing)
    hv = g.spacing**dim * fields.from_columns(product(fields.to_columns(v)))
    assert np.linalg.norm((hv - fd)[interior]) <= 1e-6 * np.linalg.norm(fd[interior])


@pytest.mark.parametrize(
    "dim, name, points",
    [(1, "double_well", 41), (2, "triple_well", 17), (3, "tetra_well", 9), (1, "double_well", 601), (2, "triple_well", 263)],
    ids=["1-double_well", "2-triple_well", "3-tetra_well", "1-double_well-fft", "2-triple_well-fft"],
)
def test_newton_preconditioner_inverts_shifted_laplacian(dim, name, points):
    # the last two grids have more interior nodes per axis than
    # kernels.SINE_MATRIX_MAX, so their sine transforms take the FFT path
    assert (points - 2 > kernels.SINE_MATRIX_MAX) == (points > 41)
    pot = potentials.get_potential(name)
    g = fields.Grid(dim=dim, half_width=2.0, points=points)
    shift = 2.0 * pot.c**2
    v = fields.to_columns(_interior_random(g, pot.m, np.random.default_rng(20 + dim)))
    av = shift * v - kernels.laplacian(v, g.spacing)
    back = fields._dirichlet_inverse(v.shape, g.spacing, shift)(av)
    assert np.max(np.abs(back - v)) <= 1e-12


CATALOG_BY_M = {1: "double_well", 2: "triple_well", 3: "tetra_well"}


@pytest.mark.parametrize("dim, m", list(itertools.product([1, 2, 3], [1, 2, 3])))
def test_hessian_product_matches_the_einsum_oracle(dim, m):
    # the component-major product, multiply-adds over the upper-triangle rows,
    # is the interleaved einsum over the full W_uu minus the stencil
    pot = potentials.get_potential(CATALOG_BY_M[m])
    g = fields.Grid(dim=dim, half_width=1.5, points={1: 41, 2: 15, 3: 9}[dim])
    rng = np.random.default_rng(30 + 3 * dim + m)
    u = rng.normal(scale=0.5, size=g.shape + (m,))
    v = _interior_random(g, m, rng)
    lap = fields.from_columns(kernels.laplacian(fields.to_columns(v), g.spacing))
    ref = np.einsum("nij,nj->ni", pot.hess_field(u.reshape(-1, m)), v.reshape(-1, m)).reshape(v.shape) - lap
    got = fields._hessian_product(fields.to_columns(u), pot, g.spacing)(fields.to_columns(v))
    assert got.shape == (m,) + g.shape
    assert np.max(np.abs(fields.from_columns(got) - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim, m", [(1, 2), (2, 3), (2, 1), (3, 3)])
def test_newton_krylov_returns_the_callers_layout(dim, m):
    # the loop runs on component-major copies; the caller gets (..., m)
    # values back, C-contiguous, with its boundary layer bit for bit and its
    # start untouched, and the last energy is fields.energy of those values
    pot = potentials.get_potential(CATALOG_BY_M[m])
    g = fields.Grid(dim=dim, half_width=2.0, points={1: 41, 2: 21, 3: 9}[dim])
    start = np.random.default_rng(40 + dim + m).normal(scale=0.3, size=g.shape + (m,))
    kept = start.copy()
    values, _, steps, history, _ = fields.newton_krylov(start, pot, g.spacing, 1e-12, 3)
    edge = ~g.interior_mask.reshape(g.shape)
    assert steps >= 1 and values.shape == start.shape and values.flags.c_contiguous
    assert np.array_equal(start, kept) and values[edge].tobytes() == start[edge].tobytes()
    assert history[-1] == fields.energy(fields.VectorField(g, values), pot)


def test_newton_slab_matches_explicit_descent(double_well, monkeypatch):
    # criterion 6's wrong-width slab on 101^2: Newton reaches the field of
    # fixed-step explicit descent, never raises the energy, and keeps the
    # reflection symmetry of its one projected start to rounding
    g = fields.Grid(dim=2, half_width=5.0, points=101)

    def wrong_width(pts):
        return np.tanh(pts[:, 0])[:, None]

    f0 = fields.field_from_function(g, wrong_width, 1)
    pairs = fields.reflection_pairs(2, 1)
    explicit, explicit_steps, explicit_res = _fixed_step_descent(f0, double_well, 1e-4, pairs)
    assert explicit_res <= 1e-4
    projected = []
    project = fields.symmetrize_pairs

    def recording_project(field, pairs):
        projected.append(pairs)
        return project(field, pairs)

    monkeypatch.setattr(fields, "symmetrize_pairs", recording_project)
    base = dict(residual_target=1e-4, max_iter=40_000)
    newton = fields.solve_dirichlet(f0, double_well, wrong_width, opts=fields.SolveOptions(**base))
    assert newton.converged and newton.residual <= 1e-4
    assert newton.iterations <= 5 < explicit_steps  # 3 Newton steps, about 2100 explicit
    assert np.max(np.abs(newton.field.values - explicit)) <= 2e-4
    assert newton.energy <= fields.energy(fields.VectorField(g, explicit), double_well) + 1e-12
    hist = newton.energy_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    assert len(projected) == 1 and newton.equivariance_after <= 1e-12


def test_newton_projects_an_asymmetric_start(double_well):
    # zero data under u1(-x1, x2) = -u1(x1, x2): the equivariant solution is
    # a wall along x1 = 0, but a start pushed towards +1 on one side lies
    # nearer non-equivariant critical points (u = 0 among them), which Newton
    # finds unless the start is projected first
    g = fields.Grid(dim=2, half_width=5.0, points=41)

    def zero(pts):
        return np.zeros((len(pts), 1))

    def lopsided(pts):
        bump = np.exp(-((pts[:, 0] - 1.5) ** 2 + pts[:, 1] ** 2))
        return (0.1 * np.tanh(pts[:, 0]) + 0.9 * bump)[:, None]

    f0 = fields.field_from_function(g, lopsided, 1)
    newton = fields.solve_dirichlet(f0, double_well, zero, opts=fields.SolveOptions(residual_target=1e-6))
    # the oracle starts from the same data: boundary at zero, action projected
    f0.values[~g.interior_mask.reshape(g.shape)] = 0.0
    explicit, _, explicit_res = _fixed_step_descent(f0, double_well, 1e-6, fields.reflection_pairs(2, 1))
    assert newton.converged and explicit_res <= 1e-6
    assert newton.equivariance_before > 0.5 and newton.equivariance_after <= 1e-12
    assert np.max(np.abs(explicit)) > 0.5  # the wall, not u = 0
    assert np.max(np.abs(newton.field.values - explicit)) <= 1e-5
    assert newton.energy <= fields.energy(fields.VectorField(g, explicit), double_well) + 1e-12
    hist = newton.energy_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_newton_damps_steps_from_a_rough_start(double_well):
    # full Newton steps from a rough field overshoot; the line search keeps
    # every accepted step descending
    g = fields.Grid(dim=2, half_width=3.0, points=41)
    rng = np.random.default_rng(5)
    f0 = fields.VectorField(g, rng.normal(scale=2.0, size=g.shape + (1,)))
    res = fields.minimize(f0, double_well, opts=fields.SolveOptions(residual_target=1e-8))
    assert (res.method, res.stop_reason) == ("newton", "converged")
    hist = res.energy_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_solve_result_names_method_and_stop_reason(
    slab_solution, junction, double_well, triple_well, dihedral3, monkeypatch
):
    slab = slab_solution["result"]
    assert (slab.method, slab.stop_reason) == ("newton", "converged")
    d3 = junction["result"]
    assert (d3.method, d3.stop_reason) == ("newton", "converged")
    g = fields.Grid(dim=2, half_width=5.0, points=41)
    f0 = fields.field_from_function(g, slab_fn, 1)
    f0.values[1:-1, 1:-1] += 0.2
    opts = fields.SolveOptions(residual_target=1e-12, max_iter=1)
    res = fields.minimize(f0, double_well, opts=opts)
    assert (res.method, res.stop_reason, res.iterations) == ("newton", "max_iter", 1)
    # a grid-rotating action takes Newton steps too
    res = fields.minimize(junction["initial"], triple_well, symmetry=dihedral3, opts=opts)
    assert (res.method, res.stop_reason, res.iterations) == ("newton", "max_iter", 1)
    # an energy that rises on every evaluation defeats the Newton line search;
    # minimize takes the energy and its gradient from discrete_energy
    calls = []
    fused = fields.discrete_energy

    def rising_energy(values, h, potential, grad=True):
        calls.append(None)
        return float(len(calls)), fused(values, h, potential, grad)[1]

    monkeypatch.setattr(fields, "discrete_energy", rising_energy)
    res = fields.minimize(f0, double_well, opts=fields.SolveOptions(residual_target=1e-12))
    assert (res.method, res.stop_reason, res.converged, res.iterations) == ("newton", "line_search", False, 0)


def test_solve_result_residual_is_that_of_its_field(slab_solution, junction, double_well, triple_well):
    """The reported residual is pde_residual of the returned field on both
    paths: after Newton's last step, after its closing projection, and when
    the start already meets the target."""
    for result, pot in ((slab_solution["result"], double_well), (junction["result"], triple_well)):
        assert result.residual == fields.pde_residual(result.field, pot)
    g = fields.Grid(dim=2, half_width=5.0, points=41)
    f0 = fields.field_from_function(g, slab_fn, 1)
    f0.values[1:-1, 1:-1] += 0.2
    for symmetry in (None, fields.reflection_pairs(2, 1)):
        for target, max_iter in ((1e-6, 0), (1e-6, 1), (1e-6, 50), (10.0, 50)):
            opts = fields.SolveOptions(residual_target=target, max_iter=max_iter)
            res = fields.minimize(f0, double_well, symmetry=symmetry, opts=opts)
            assert res.residual == fields.pde_residual(res.field, double_well)
            assert res.converged == (res.residual <= target)


# ---------------------------------------------------------------------------
# initial data


def test_initial_guess_structure(junction, triple_well, triangle_profile):
    u0 = junction["initial"]
    rm = junction["region_map"]
    # deep in the base region: the base well, within exponential accuracy
    deep = u0.interp(np.array([[6.0, 0.0]]))[0]
    assert np.linalg.norm(deep - triple_well.wells[0]) < 1e-8
    # on a region wall away from the junction: the transported midpoint value
    wall_pt = 5.0 * np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])
    mid = triangle_profile.sample(np.array([0.0]))[0]
    val = u0.interp(wall_pt[None, :])[0]
    assert np.linalg.norm(val) == pytest.approx(np.linalg.norm(mid), abs=1e-3)
    assert fields.equivariance_residual_pairs(u0, fields.as_pairs(junction["region_map"].group)) < 0.05
    _ = rm


def test_symmetrize_identity_action_is_exact():
    # on this grid (x + R) / h is not integral at every node, so interpolating
    # the identity pair would round the values it should return unchanged
    g = fields.Grid(dim=2, half_width=5.0, points=101)
    u = fields.VectorField(g, np.random.default_rng(3).standard_normal(g.shape + (2,)))
    s = fields.symmetrize_pairs(u, [(np.eye(2), np.eye(2))])
    assert np.array_equal(s.values, u.values)


def _box_preserving_elements(action: str, dim: int) -> list:
    if action == "reflection_pairs":
        return [fields.reflection_pairs(dim, 1, x_axis=a)[1][0] for a in range(dim)]
    return [gx for gx in groups.get_group(action).elements if fields._box_preserving(gx)]


@pytest.mark.parametrize(
    "action, dim",
    [
        ("dihedral_2", 2),
        ("dihedral_3", 2),
        ("dihedral_4", 2),
        ("dihedral_6", 2),
        ("tetrahedral", 3),
        ("cubic", 3),
        ("reflection_pairs", 2),
        ("reflection_pairs", 3),
    ],
)
def test_node_image_matches_rounding_gather(action, dim):
    # a box-preserving g_x maps every node to a node, so u(g_x x) is the
    # stored value at the node nearest to g_x x, bit for bit
    elements = _box_preserving_elements(action, dim)
    assert elements
    for points in (9, 17, 33) if dim == 2 else (9, 17):
        g = fields.Grid(dim=dim, half_width=2.5, points=points)
        u = np.random.default_rng(points).normal(size=g.shape + (2,))
        flat = u.reshape(-1, 2)
        for gx in elements:
            idx = np.rint((g.nodes @ gx.T + g.half_width) / g.spacing).astype(int)
            gathered = flat[np.ravel_multi_index(tuple(idx.T), g.shape)]
            image = fields._node_image(fields.to_columns(u), gx)  # component-major (2, *grid)
            assert np.array_equal(fields.from_columns(image).reshape(-1, 2), gathered)


@pytest.mark.parametrize(
    "action, dim, points",
    [("reflection_pairs", 2, 101), ("dihedral_2", 2, 101), ("dihedral_4", 2, 101), ("cubic", 3, 21)],
)
def test_node_permuting_projection_is_exact(action, dim, points):
    # on 101^2 at half-width 5, interpolating at reflected nodes is off by up
    # to 1e-13; node images are the stored values, so a two-element action is
    # projected exactly and the larger groups only to summation rounding
    if action == "reflection_pairs":
        pairs = fields.reflection_pairs(dim, 1)
    else:
        pairs = fields.as_pairs(groups.get_group(action))
    g = fields.Grid(dim=dim, half_width=5.0, points=points)
    m = pairs[0][1].shape[0]
    u = fields.VectorField(g, np.random.default_rng(1).normal(size=g.shape + (m,)))
    s = fields.symmetrize_pairs(u, pairs)
    res = fields.equivariance_residual_pairs(s, pairs)
    if action == "reflection_pairs":
        assert res == 0.0
        assert np.array_equal(fields.symmetrize_pairs(s, pairs).values, s.values)
    else:
        assert res <= 1e-14 * np.abs(s.values).max()


def test_initial_guess_rejects_foreign_profile(double_well, triangle_region, dihedral3):
    prof = connect.solve_connection(double_well, [-1.0], [1.0], 6.0, 600)
    grid = fields.Grid(dim=2, half_width=4.0, points=41)
    with pytest.raises(ValueError):
        fields.initial_guess(dihedral3, triangle_region, prof, grid)


def test_initial_guess_rejects_an_antipodal_profile(cube_corners, cubic):
    # no reflection of the cubic group swaps a cube corner with its antipode
    pot = potentials.potential_from_json(cube_corners)
    rm = groups.build_region_map(cubic, pot.wells[0])
    prof = connect.solve_connection(pot, -rm.wells[0], rm.wells[0], 6.0, 1200, tol=1e-9)
    with pytest.raises(ValueError, match="not related by a group reflection"):
        fields.initial_guess(cubic, rm, prof, fields.Grid(dim=3, half_width=8.0, points=11))


# ---------------------------------------------------------------------------
# minimize


def test_minimize_slab_converges_to_tanh(double_well):
    g = fields.Grid(dim=2, half_width=8.0, points=161)
    f0 = fields.field_from_function(g, slab_fn, 1)
    pairs = fields.reflection_pairs(2, 1)
    opts = fields.SolveOptions(residual_target=1e-5, max_iter=30_000, k_sym=10, check_every=50)
    res = fields.minimize(f0, double_well, symmetry=pairs, opts=opts)
    assert res.converged
    exact = np.tanh(g.nodes[:, 0] / np.sqrt(2.0)).reshape(g.shape)
    assert np.max(np.abs(res.field.values[..., 0] - exact)) <= 5e-3


def test_minimize_energy_monotone(junction):
    hist = junction["result"].energy_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_minimize_junction_contract(junction, triple_well, dihedral3, triangle_region, triangle_profile):
    res = junction["result"]
    assert res.converged
    assert res.residual <= 1e-3
    # refinement contract.  The dihedral-3 action rotates the square grid, so
    # the discrete junction is equivariant only up to the O(h^2) error of the
    # stencil; solved to 1e-6, its defect must fall by >= 3 when h halves and
    # stay under 0.5 h^2 R on the fine grid (measured: 0.29-0.33 h^2 R for
    # R in 6..12).  An O(h) or O(1) asymmetry fails the ratio.
    for half_width, points in ((6.0, 81), (9.0, 121)):
        defects = []
        for P in (points, 2 * points - 1):
            grid = fields.Grid(dim=2, half_width=half_width, points=P)
            u0 = fields.initial_guess(dihedral3, triangle_region, triangle_profile, grid)
            opts = fields.SolveOptions(residual_target=1e-6)
            solved = fields.minimize(u0, triple_well, symmetry=dihedral3, opts=opts)
            assert solved.converged and solved.residual <= 1e-6
            defects.append(solved.equivariance_after)
        assert defects[0] / defects[1] >= 3.0
        assert defects[1] <= 0.5 * grid.spacing**2 * half_width


def test_minimize_positivity_monitor(junction, dihedral3):
    # monitored, not enforced: the discrete minimizer may leave the chamber
    # by a small discretization-level excursion
    v = fields.positivity_violation(junction["result"].field, dihedral3.wall_normals)
    assert 0.0 <= v <= 0.01


def test_minimize_immediate_return(double_well):
    g = fields.Grid(dim=2, half_width=3.0, points=41)
    f = fields.constant_field(g, [1.0])
    res = fields.minimize(f, double_well, opts=fields.SolveOptions(residual_target=1e-8))
    assert res.iterations == 0 and res.converged


def test_minimize_liouville_growth(junction, triple_well):
    # nonconstant junction: energy over B_R grows at least linearly in R
    from multiwell import diagnostics

    radii = np.linspace(2.0, 7.5, 8)
    mono = diagnostics.monotonicity_profile(diagnostics.stress_energy(junction["result"].field, triple_well), [0, 0], radii)
    E = mono["energies"]
    slopes = np.diff(E) / np.diff(radii)
    assert np.all(slopes > 0.5)  # well above zero: no finite-energy profile


def _fixed_step_descent(f0, pot, target, pairs=None, k_sym=10, dt=None, max_steps=50_000):
    """Test oracle: explicit gradient descent u <- u + dt (Delta_h u - W_u(u))
    on the interior nodes at a fixed dt (default 0.9 h^2 / (2 dim)), with the
    action ``pairs`` projected (and the boundary of ``f0`` restored) at the
    start and every ``k_sym`` steps, until the sup residual is at most
    ``target``.  Returns (values, steps, residual); a NaN residual stops it
    too.  A dt above the diffusion stability bound h^2 / (2 dim) is refused."""
    g = f0.grid
    bound = g.spacing**2 / (2 * g.dim)
    dt = 0.9 * bound if dt is None else dt
    if dt > bound:
        raise ValueError("fixed step above the diffusion stability bound")
    interior = g.interior_mask.reshape(g.shape)
    u = f0.values.copy()
    for n in range(max_steps + 1):
        if pairs and n % k_sym == 0:
            u = fields.symmetrize_pairs(fields.VectorField(g, u), pairs).values
            u[~interior] = f0.values[~interior]
        lap = fields.from_columns(kernels.laplacian(fields.to_columns(u), g.spacing))
        step = lap - pot.grad_field(u.reshape(-1, pot.m)).reshape(u.shape)
        step[~interior] = 0.0
        res = float(np.sqrt(np.sum(step * step, axis=-1)).max())
        if not res > target or n == max_steps:
            return u, n, res
        u += dt * step


def test_newton_reuses_no_stale_gradient(double_well, triple_well, dihedral3, triangle_region, triangle_profile, monkeypatch):
    """minimize keeps the gradient b of each accepted trial for the next Newton
    step; the right-hand side of every step must equal Delta_h u - W_u(u) evaluated
    afresh at the state it starts from, after projections and rejected
    trials alike."""
    hessian_product, truncated_cg = fields._hessian_product, fields._truncated_cg
    states, errors = [], []

    def recording_hessian_product(state, potential, h):
        states.append((state.copy(), potential, h))
        return hessian_product(state, potential, h)

    def checked_cg(b, *args):
        state, pot, h = states[-1]  # component-major (m, *grid), as are b and the products
        w_u = pot.grad_field(state.reshape(pot.m, -1).T).T.reshape(state.shape)
        fresh = kernels.laplacian(state, h) - w_u
        interior = np.zeros(state.shape[1:], dtype=bool)
        interior[(slice(1, -1),) * interior.ndim] = True
        fresh[:, ~interior] = 0.0
        errors.append(float(np.max(np.abs(b - fresh))))
        return truncated_cg(b, *args)

    monkeypatch.setattr(fields, "_hessian_product", recording_hessian_product)
    monkeypatch.setattr(fields, "_truncated_cg", checked_cg)
    g = fields.Grid(dim=2, half_width=3.0, points=41)
    rough = fields.VectorField(g, np.random.default_rng(5).normal(scale=2.0, size=g.shape + (1,)))
    # damped steps from a rough start reject trials
    res = fields.minimize(rough, double_well, opts=fields.SolveOptions(residual_target=1e-8, max_iter=50))
    assert res.converged and len(errors) == res.iterations > 3
    # a grid-rotating action, never projected
    u0 = fields.initial_guess(dihedral3, triangle_region, triangle_profile, fields.Grid(dim=2, half_width=4.0, points=41))
    rotating = fields.minimize(u0, triple_well, symmetry=dihedral3, opts=fields.SolveOptions(residual_target=1e-8, max_iter=50))
    assert rotating.converged and len(errors) == res.iterations + rotating.iterations
    assert max(errors) <= 1e-12


def test_fixed_step_stability_guard(double_well):
    # fixed steps above h^2/(2 dim) are unstable, so the explicit oracle
    # refuses them; minimize takes no step size and converges from the field
    g = fields.Grid(dim=2, half_width=2.0, points=21)
    f = fields.constant_field(g, [0.5])
    f.values[1:-1, 1:-1] = 0.9
    with pytest.raises(ValueError):
        _fixed_step_descent(f, double_well, 1e-8, dt=1.0)
    _, _, res = _fixed_step_descent(f, double_well, 1e-8, dt=g.spacing**2 / 4)
    assert res <= 1e-8
    assert fields.minimize(f, double_well, opts=fields.SolveOptions(residual_target=1e-8)).converged


def test_nan_abort(double_well):
    # from u = 1e8 fixed explicit steps overflow while Newton steps stay
    # finite; an energy that overflows turns the Newton step to NaN, which
    # raises SolveError rather than returning a field
    g = fields.Grid(dim=2, half_width=2.0, points=21)
    f = fields.VectorField(g, np.full(g.shape + (1,), 1e8))
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, res = _fixed_step_descent(f, double_well, 1e-8, max_steps=50)
    assert np.isnan(res)
    newton = fields.minimize(f, double_well, opts=fields.SolveOptions(max_iter=50))
    assert newton.stop_reason == "max_iter" and np.all(np.isfinite(newton.energy_history))
    f = fields.VectorField(g, np.full(g.shape + (1,), 1e100))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(fields.SolveError):
        fields.minimize(f, double_well, opts=fields.SolveOptions(max_iter=50))


def test_descent_from_a_saddle_is_no_stall(double_well):
    # 1e-6 cos(pi x / 20) next to the saddle u = 0: the residual rises for
    # more than STALL_STEPS steps while the energy falls, and the descent
    # goes on to the well-to-well layer
    g = fields.Grid(dim=1, half_width=10.0, points=201)
    f = fields.VectorField(g, 1e-6 * np.cos(np.pi * g.nodes[:, :1] / 20.0))
    rising = [
        fields.minimize(f, double_well, opts=fields.SolveOptions(max_iter=n, residual_target=1e-10)).residual
        for n in range(fields.STALL_STEPS + 3)
    ]
    assert np.all(np.diff(rising) > 0)
    res = fields.minimize(f, double_well, opts=fields.SolveOptions(max_iter=200, residual_target=1e-10))
    assert res.stop_reason == "converged" and res.iterations > fields.STALL_STEPS + 2
    assert np.all(np.diff(res.energy_history[: fields.STALL_STEPS + 3]) < 0)


@pytest.mark.parametrize("amplitude", [1e-8, 1e-10])
def test_descent_from_within_rounding_of_a_saddle_is_no_stall(double_well, amplitude):
    # closer to the saddle u = 0 the energy falls by less than 1e-14 |E| per
    # step at first, while the residual rises about 1.5x per step: a rise
    # above 1.25x is progress, so the descent goes on to the layer
    g = fields.Grid(dim=1, half_width=20.0, points=401)
    f = fields.VectorField(g, amplitude * np.cos(np.pi * g.nodes[:, :1] / 40.0))
    res = fields.minimize(f, double_well, opts=fields.SolveOptions(max_iter=200, residual_target=1e-12))
    assert res.stop_reason == "converged" and res.iterations > 10 * fields.STALL_STEPS
    assert res.energy < 0.1 * res.energy_history[0]


# ---------------------------------------------------------------------------
# solve_dirichlet


def test_dirichlet_interior_tracks_profile(slab_solution):
    res = slab_solution["result"]
    g = slab_solution["grid"]
    assert res.converged
    exact = np.tanh(g.nodes[:, 0] / np.sqrt(2.0)).reshape(g.shape)
    err = np.abs(res.field.values[..., 0] - exact)
    assert err[1:-1, 1:-1].max() <= 1e-3


def test_dirichlet_constant_well_data(double_well):
    # constant data is not odd in u1, so the default reflection action must
    # be dropped explicitly
    g = fields.Grid(dim=2, half_width=2.0, points=41)
    f0 = fields.constant_field(g, [1.0])
    res = fields.solve_dirichlet(
        f0, double_well, np.ones(g.shape + (1,)), opts=fields.SolveOptions(), symmetry=[]
    )
    assert res.iterations == 0
    assert np.all(res.field.values == 1.0)


def test_dirichlet_rejects_asymmetric_data(double_well):
    g = fields.Grid(dim=2, half_width=2.0, points=41)
    f0 = fields.constant_field(g, [0.0])

    def bad(pts):
        return (pts[:, 0] + 0.3)[:, None]  # not odd in x1

    with pytest.raises(ValueError):
        fields.solve_dirichlet(f0, double_well, bad)


def test_minimize_rejects_non_equivariant_boundary(double_well):
    # a node-permuting projection maps the boundary layer to itself and the
    # solve resets it afterwards, so a boundary that is not equivariant could
    # never converge: the solve names it instead of running out of steps
    g = fields.Grid(dim=2, half_width=5.0, points=41)
    rng = np.random.default_rng(0)
    f0 = fields.VectorField(g, rng.normal(scale=2.0, size=g.shape + (1,)))
    opts = fields.SolveOptions(max_iter=200)
    with pytest.raises(ValueError, match="boundary residual"):
        fields.minimize(f0, double_well, symmetry=fields.reflection_pairs(2, 1), opts=opts)


# ---------------------------------------------------------------------------
# Odd axis mirrors: Newton on the box they cut out


def _sign_pairs(dim: int) -> list:
    """The scalar action of every axis sign flip s: u(s x) = (prod s) u(x),
    whose one-flip pairs are the odd axis mirrors of all axes."""
    return [(np.diag(s), np.array([[np.prod(s)]])) for s in itertools.product([1.0, -1.0], repeat=dim)]


@pytest.fixture
def newton_shapes(monkeypatch):
    """The shapes of the arrays that ``minimize`` passes to newton_krylov,
    and the unwrapped solver."""
    shapes, solve = [], fields.newton_krylov

    def recording(state, *args):
        shapes.append(state.shape)
        return solve(state, *args)

    monkeypatch.setattr(fields, "newton_krylov", recording)
    return shapes, solve


MIRROR_CASES = {
    "slab": (2, 101, lambda x: np.tanh(x[:, 0]), fields.reflection_pairs(2, 1), (51, 101, 1)),
    "saddle2d": (2, 101, lambda x: np.tanh(x[:, 0]) * np.tanh(x[:, 1]), _sign_pairs(2), (51, 51, 1)),
    "saddle3d": (3, 33, lambda x: np.prod(np.tanh(x), axis=1), _sign_pairs(3), (17, 17, 17, 1)),
}


@pytest.mark.parametrize("case", sorted(MIRROR_CASES))
def test_odd_mirrors_cut_the_box_and_match_the_full_box(double_well, newton_shapes, case):
    # Newton on the half box of each odd mirror takes the steps of Newton on
    # the whole box from the same projected start and unfolds to its field
    dim, P, fn, pairs, cut_shape = MIRROR_CASES[case]
    shapes, solve = newton_shapes
    g = fields.Grid(dim=dim, half_width=5.0, points=P)
    f0 = fields.field_from_function(g, lambda x: fn(x)[:, None], 1)
    res = fields.minimize(f0, double_well, symmetry=pairs, opts=fields.SolveOptions(residual_target=1e-4))
    assert shapes == [cut_shape, g.shape + (1,)] and res.converged
    edge = ~g.interior_mask.reshape(g.shape)
    start = fields.symmetrize_pairs(f0, pairs).values
    start[edge] = f0.values[edge]
    full, _, steps, _, _ = solve(start, double_well, g.spacing, 1e-4, 200)
    assert res.iterations == steps > 0
    assert np.max(np.abs(res.field.values - full)) <= 1e-12
    # exactly odd in each cut axis: zero on the face, the halves mirrored
    for a in (a for a in range(dim) if cut_shape[a] < P):
        u = np.moveaxis(res.field.values, a, 0)
        assert np.all(u[P // 2] == 0.0) and np.array_equal(u[::-1], -u)


def test_cut_field_is_odd_from_any_start(double_well):
    # the projection of a start that is not odd leaves rounding on the face
    # x_a = 0 in some orders of the pairs, ((a - b) - a) + b; the face is
    # zeroed, so the returned field is odd bit for bit
    g = fields.Grid(dim=2, half_width=4.0, points=41)
    rng = np.random.default_rng(3)
    f0 = fields.field_from_function(g, lambda x: (np.tanh(x[:, 0]) * np.tanh(x[:, 1]))[:, None], 1)
    f0.values[1:-1, 1:-1] += rng.normal(scale=0.1, size=(39, 39, 1))
    res = fields.minimize(f0, double_well, symmetry=_sign_pairs(2), opts=fields.SolveOptions(residual_target=1e-6))
    assert res.converged
    u = res.field.values
    assert np.all(u[20] == 0.0) and np.all(u[:, 20] == 0.0)
    assert np.array_equal(u[::-1], -u) and np.array_equal(u[:, ::-1], -u)


@pytest.mark.parametrize("action", ["reflection_pairs", "dihedral_4"])
def test_mixed_parity_mirrors_keep_the_full_box(triple_well, newton_shapes, action):
    # the x1 mirror of these actions keeps u2 even: no odd axis mirror, no cut
    shapes, _ = newton_shapes
    g = fields.Grid(dim=2, half_width=3.0, points=21)
    symmetry = fields.reflection_pairs(2, 2) if action == "reflection_pairs" else groups.get_group(action)
    f0 = fields.field_from_function(g, np.tanh, 2)
    res = fields.minimize(f0, triple_well, symmetry=symmetry, opts=fields.SolveOptions(max_iter=1))
    assert shapes == [g.shape + (2,)] and res.iterations == 1


def test_cut_path_restores_the_boundary_and_reports_the_full_field(double_well, newton_shapes):
    # boundary data within the equivariance tolerance but not odd: the cut
    # solve's unfolded boundary is off the data by 1e-7 until it is restored,
    # and the restored field is off target until Newton goes on on the whole box
    shapes, _ = newton_shapes
    g = fields.Grid(dim=2, half_width=5.0, points=101)

    def data(x):
        return (np.tanh(x[:, 0]) + 1e-7 * np.cos(x[:, 1]) * (x[:, 0] > 0))[:, None]

    f0 = fields.field_from_function(g, data, 1)
    res = fields.solve_dirichlet(f0, double_well, data, opts=fields.SolveOptions(residual_target=1e-6))
    assert shapes == [(51, 101, 1), (101, 101, 1)]
    assert res.converged and res.stop_reason == "converged"
    edge = ~g.interior_mask.reshape(g.shape)
    assert np.array_equal(res.field.values[edge], f0.values[edge])
    assert res.residual == fields.pde_residual(res.field, double_well) <= 1e-6
    assert abs(res.energy - fields.energy(res.field, double_well)) <= 1e-13 * res.energy
    hist = res.energy_history
    assert len(hist) == res.iterations + 1 and hist[-1] == res.energy
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    # a boundary off the class by more than the tolerance never reaches the cut
    f0.values[0, 3] += 1e-3
    with pytest.raises(ValueError, match="boundary residual"):
        fields.minimize(f0, double_well, symmetry=fields.reflection_pairs(2, 1))
    assert len(shapes) == 2


# ---------------------------------------------------------------------------
# 3D smoke test and persistence


def test_tetra_3d_descent_smoke(tetra_well, tetrahedral):
    rm = groups.build_region_map(tetrahedral, potentials.TETRA_A1)
    prof = connect.solve_connection(tetra_well, rm.wells[rm.well_index(tetra_well.wells[1])], rm.wells[0], 5.0, 500, tol=1e-8)
    grid = fields.Grid(dim=3, half_width=4.0, points=25)
    u0 = fields.initial_guess(tetrahedral, rm, prof, grid)
    r0 = fields.pde_residual(u0, tetra_well)
    opts = fields.SolveOptions(residual_target=1e-6, max_iter=300, k_sym=10, check_every=100)
    res = fields.minimize(u0, tetra_well, symmetry=tetrahedral, opts=opts)
    hist = res.energy_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    assert res.residual < r0
    assert res.equivariance_after <= 2.0 * res.equivariance_before + 5e-9


def test_tetra_defect_is_the_box_term(tetra_well, tetrahedral):
    # the rotating tetrahedral action does not map the cube box onto itself,
    # so the box, not the O(h^2) stencil, dominates the solved defect: set up
    # as the tetra3d benchmark, it falls by less than 2 from 17^3 to 33^3
    # (measured 5.16e-2 -> 3.00e-2), where dihedral-3's falls by at least 3
    # per halving of h (test_minimize_junction_contract)
    rm = groups.build_region_map(tetrahedral, tetra_well.wells[0])
    prof = connect.solve_connection(tetra_well, rm.wells[1], rm.wells[0], 5.0, 500, tol=1e-9)
    defects = []
    for P in (17, 33):
        u0 = fields.initial_guess(tetrahedral, rm, prof, fields.Grid(dim=3, half_width=5.0, points=P))
        res = fields.minimize(u0, tetra_well, symmetry=tetrahedral, opts=fields.SolveOptions(residual_target=1e-3))
        assert res.converged
        defects.append(res.equivariance_after)
    assert 1.0 < defects[0] / defects[1] < 2.0


def test_minimize_interpolates_one_image_per_coset(tetra_well, tetrahedral, interp_calls):
    # the defect is measured before and after the steps; each measurement
    # interpolates the two coset representatives besides the identity, where
    # the tetrahedral group has 16 elements that rotate the grid
    grid = fields.Grid(dim=3, half_width=3.0, points=13)
    u0 = fields.VectorField(grid, np.tanh(grid.nodes).reshape(grid.shape + (3,)))
    res = fields.minimize(u0, tetra_well, symmetry=tetrahedral, opts=fields.SolveOptions(max_iter=3))
    assert res.iterations > 0 and len(interp_calls) == 4


def test_field_csv_roundtrip_bitwise(tmp_path, junction):
    f = junction["result"].field
    csv = tmp_path / "f.csv"
    meta = tmp_path / "f.json"
    fields.save_field(f, csv, meta, extra_meta={"note": "junction"})
    back = fields.load_field(csv, meta)
    assert np.array_equal(back.values, f.values)  # 17 significant digits round-trip
    assert back.grid == f.grid


def _saved_field(tmp_path, m=2):
    g = fields.Grid(dim=2, half_width=1.0, points=5)
    f = fields.constant_field(g, np.arange(1.0, m + 1.0))
    csv, meta = tmp_path / "f.csv", tmp_path / "f.json"
    fields.save_field(f, csv, meta)
    return f, csv, meta


def test_load_field_reads_the_value_columns(tmp_path):
    f, csv, meta = _saved_field(tmp_path)
    back = fields.load_field(csv, meta)
    assert np.array_equal(back.values, f.values) and back.grid == f.grid


def test_load_field_with_a_missing_row_raises(tmp_path):
    _, csv, meta = _saved_field(tmp_path)
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(ValueError):
        fields.load_field(csv, meta)


def test_load_field_with_too_few_columns_raises(tmp_path):
    _, csv, meta = _saved_field(tmp_path)
    meta.write_text(json.dumps(dict(json.loads(meta.read_text()), m=3)))
    with pytest.raises(ValueError):
        fields.load_field(csv, meta)


@pytest.mark.parametrize(
    "key, value", [("dim", 2.5), ("points", 5.5), ("m", 2.9), ("m", True), ("half_width", "1"), ("half_width", False)]
)
def test_load_field_rejects_metadata_that_a_coercion_would_change(tmp_path, key, value):
    # int() would read 2.5 as 2 and True as 1, float() "1" as 1.0
    _, csv, meta = _saved_field(tmp_path)
    meta.write_text(json.dumps(dict(json.loads(meta.read_text()), **{key: value})))
    with pytest.raises(ValueError, match=f"'{key}' is {value!r}"):
        fields.load_field(csv, meta)


def test_csv_writers_match_per_value_format(tmp_path, double_well):
    # the one-pass %.17g writers give the bytes of format(v, ".17g") per value
    special = [0.0, -0.0, 5e-324, -5e-324, 1e16, 2.0**53, np.inf, -np.inf, np.nan, 0.1, -1.0 / 3.0]
    rng = np.random.default_rng(7)
    g = fields.Grid(dim=2, half_width=1.5, points=9)
    vals = rng.normal(size=g.shape + (2,)) * 10.0 ** rng.uniform(-30, 30, size=g.shape + (2,))
    vals.ravel()[: len(special)] = special
    field = fields.VectorField(g, vals)
    eta = np.linspace(-3.0, 3.0, 41)
    values = np.tanh(eta)[:, None] * 10.0 ** rng.uniform(-300, 300, size=(41, 1))
    values[: len(special), 0] = special
    prof = connect.ConnectionProfile(eta, values, np.array([-1.0]), np.array([1.0]), double_well)

    def expected(header, table):
        rows = [",".join(format(v, ".17g") for v in row) for row in table]
        return "\n".join([",".join(header)] + rows) + "\n"

    fields.save_field(field, tmp_path / "f.csv", tmp_path / "f.json")
    table = np.hstack([g.nodes, field.flat()])
    assert (tmp_path / "f.csv").read_text() == expected(["x1", "x2", "u1", "u2"], table)
    # the node coordinates are formatted once per axis value, in any dimension
    for dim, m in ((1, 3), (3, 1)):
        g = fields.Grid(dim=dim, half_width=1.3, points=7)
        shape = g.shape + (m,)
        field = fields.VectorField(g, rng.normal(size=shape) * 10.0 ** rng.uniform(-30, 30, size=shape))
        fields.save_field(field, tmp_path / "f.csv", tmp_path / "f.json")
        header = [f"x{i + 1}" for i in range(dim)] + [f"u{i + 1}" for i in range(m)]
        assert (tmp_path / "f.csv").read_text() == expected(header, np.hstack([g.nodes, field.flat()]))
    connect.save_profile(prof, tmp_path / "p.csv")
    table = np.column_stack([eta, values])
    assert (tmp_path / "p.csv").read_text() == expected(["eta", "U1"], table)
