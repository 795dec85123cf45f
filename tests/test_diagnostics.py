import itertools

import numpy as np
import pytest

from multiwell import connect, diagnostics, fields, kernels, partitions, potentials

SIGMA_DW = 2.0 * np.sqrt(2.0) / 3.0


def slab_fn(pts):
    return np.tanh(pts[:, 0] / np.sqrt(2.0))[:, None]


@pytest.fixture(scope="module")
def slab_field(double_well):
    g = fields.Grid(dim=2, half_width=4.0, points=161)
    return fields.field_from_function(g, slab_fn, 1)


# ---------------------------------------------------------------------------
# stress-energy tensor


def test_stress_energy_constant_well(double_well):
    g = fields.Grid(dim=2, half_width=2.0, points=41)
    se = diagnostics.stress_energy(fields.constant_field(g, [1.0]), double_well)
    assert np.max(np.abs(se.tensor)) == 0.0


def test_stress_energy_slab_structure(slab_field, double_well):
    se = diagnostics.stress_energy(slab_field, double_well)
    T = se.tensor
    # T11 = |U'|^2/2 - W vanishes by equipartition (up to stencil error)
    assert np.max(np.abs(T[..., 0, 0])) < 1e-3
    # T22 = -(|U'|^2/2 + W) is non-positive and strictly negative on the wall
    assert np.max(T[..., 1, 1]) <= 0.0
    assert np.min(T[..., 1, 1]) < -0.4
    assert np.array_equal(T[..., 0, 1], T[..., 1, 0])


def test_divergence_residual_second_order(double_well):
    vals = []
    for P in (81, 161):
        g = fields.Grid(dim=2, half_width=4.0, points=P)
        f = fields.field_from_function(g, slab_fn, 1)
        vals.append(diagnostics.divergence_residual(diagnostics.stress_energy(f, double_well)))
    assert vals[0] / vals[1] >= 3.5


def test_divergence_residual_constant(double_well):
    g = fields.Grid(dim=2, half_width=2.0, points=41)
    se = diagnostics.stress_energy(fields.constant_field(g, [-1.0]), double_well)
    assert diagnostics.divergence_residual(se) == 0.0


def test_divergence_matches_product_identity(double_well):
    # div T = (grad u)^T (Delta u - W_u) at stencil order on a smooth field
    def smooth(pts):
        return (np.exp(-np.sum(pts**2, axis=1)) * np.sin(pts[:, 0] + 0.5 * pts[:, 1]))[:, None]

    prev = None
    for P in (81, 161):
        g = fields.Grid(dim=2, half_width=3.0, points=P)
        f = fields.field_from_function(g, smooth, 1)
        se = diagnostics.stress_energy(f, double_well)
        lap = kernels.laplacian(fields.to_columns(f.values), g.spacing)
        resid = (lap.reshape(-1, 1) - double_well.grad_field(f.flat())).reshape(g.shape + (1,))
        grads = [d[1:-1, 1:-1] for d in diagnostics._gradients(f)]
        prod = np.stack(
            [np.sum(grads[a] * resid[1:-1, 1:-1, :], axis=-1) for a in range(2)], axis=-1
        )
        h = g.spacing
        T = se.tensor
        div = np.zeros(T[1:-1, 1:-1].shape[:-2] + (2,))
        for a in range(2):
            for b in range(2):
                up = [slice(1, -1)] * 2
                up[b] = slice(2, None)
                dn = [slice(1, -1)] * 2
                dn[b] = slice(None, -2)
                div[..., a] += (T[tuple(up) + (a, b)] - T[tuple(dn) + (a, b)]) / (2 * h)
        diff = float(np.abs(div - prod[1:-1, 1:-1]).max())
        if prev is not None:
            assert prev / diff >= 3.0
        prev = diff


def _random_field(request, dim, m, points, seed):
    g = fields.Grid(dim=dim, half_width=2.0, points=points)
    f = fields.VectorField(g, np.random.default_rng(seed).normal(size=g.shape + (m,)))
    pot = request.getfixturevalue({1: "double_well", 2: "triple_well", 3: "tetra_well"}[m])
    return f, pot


RANDOM_FIELDS = pytest.mark.parametrize(
    "dim, m, points", [(2, 1, 11), (2, 2, 13), (3, 3, 9)], ids=["2d-m1", "2d-m2", "3d-m3"]
)


@RANDOM_FIELDS
def test_interior_gradients_are_the_centered_difference(request, dim, m, points):
    # oracle: the per-axis up/dn slices the diagnostics used before np.gradient
    f, pot = _random_field(request, dim, m, points, 5)
    u, h = f.values, f.grid.spacing
    se = diagnostics.stress_energy(f, pot)
    grads, sq, W = [d[(slice(1, -1),) * dim] for d in diagnostics._gradients(f)], se.sq, se.W
    for a in range(dim):
        up = tuple(slice(2, None) if b == a else slice(1, -1) for b in range(dim))
        dn = tuple(slice(None, -2) if b == a else slice(1, -1) for b in range(dim))
        assert np.array_equal(grads[a], (u[up] - u[dn]) / (2 * h))
    inner = u[(slice(1, -1),) * dim]
    assert np.array_equal(W, pot.value_field(inner.reshape(-1, m)).reshape(sq.shape))


@RANDOM_FIELDS
def test_divergence_residual_matches_the_slice_loops(request, dim, m, points):
    # oracle: the double loop over (a, b) of centered slice differences
    f, pot = _random_field(request, dim, m, points, 6)
    se = diagnostics.stress_energy(f, pot)
    T, h = se.tensor, se.grid.spacing
    inner = (slice(1, -1),) * dim
    div = np.zeros(T[inner].shape[:-2] + (dim,))
    for a in range(dim):
        for b in range(dim):
            up = tuple(slice(2, None) if c == b else slice(1, -1) for c in range(dim))
            dn = tuple(slice(None, -2) if c == b else slice(1, -1) for c in range(dim))
            div[..., a] += (T[up + (a, b)] - T[dn + (a, b)]) / (2 * h)
    assert diagnostics.divergence_residual(se) == float(np.sqrt(np.sum(div * div, axis=-1)).max())


@RANDOM_FIELDS
def test_flux_balance_matches_the_per_dimension_sums(request, dim, m, points):
    # oracle: the 2D sum scaled by the arc step, the 3D weighted sum
    f, pot = _random_field(request, dim, m, points, 7)
    radius, n_samples = 0.9, 400
    se = diagnostics.stress_energy(f, pot)
    if dim == 2:
        th = np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
        nu = np.stack([np.cos(th), np.sin(th)], axis=1)
        flux = np.einsum("qab,qb->qa", se.interp(radius * nu), nu)
        old = (2 * np.pi * radius / n_samples) * flux.sum(axis=0)
        scale = (2 * np.pi * radius / n_samples) * np.abs(flux).sum(axis=0)
    else:
        n_th = max(8, int(np.sqrt(n_samples)))
        n_ph = 2 * n_th
        th = (np.arange(n_th) + 0.5) * np.pi / n_th
        ph = np.linspace(0.0, 2 * np.pi, n_ph, endpoint=False)
        TH, PH = np.meshgrid(th, ph, indexing="ij")
        nu = np.stack(
            [np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1
        ).reshape(-1, 3)
        w = (np.sin(TH) * (np.pi / n_th) * (2 * np.pi / n_ph)).ravel() * radius**2
        flux = np.einsum("qab,qb->qa", se.interp(radius * nu), nu)
        old = (flux * w[:, None]).sum(axis=0)
        scale = (np.abs(flux) * w[:, None]).sum(axis=0)
    new = diagnostics.flux_balance(se, radius, n_samples=n_samples)
    assert np.all(np.abs(new - old) <= 1e-14 * scale)


def test_hamiltonian_rows_match_the_per_row_loop(triple_well):
    # oracle: one trapezoid dot product per strip row
    g = fields.Grid(dim=2, half_width=2.0, points=21)
    f = fields.VectorField(g, np.random.default_rng(8).normal(size=g.shape + (2,)))
    ham = diagnostics.hamiltonian_variance(f, triple_well, strip=(-1.0, 1.5), decay_tol=100.0)
    du1, du2 = (np.gradient(f.values, g.spacing, axis=a, edge_order=2) for a in range(2))
    W = triple_well.value_field(f.flat()).reshape(g.shape)
    w = kernels.trapezoid_weights(g.axis().shape)
    rows = np.flatnonzero((g.axis() >= -1.0) & (g.axis() <= 1.5))
    assert np.array_equal(ham["x2"], g.axis()[rows])
    for j, value in zip(rows, ham["integrals"], strict=True):
        integrand = 0.5 * (np.sum(du1[:, j, :] ** 2, axis=1) - np.sum(du2[:, j, :] ** 2, axis=1)) - W[:, j]
        old = g.spacing * float(w @ integrand)
        scale = g.spacing * float(w @ np.abs(integrand))
        assert abs(value - old) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# monotonicity, Modica, Pohozaev


def test_monotonicity_junction(junction, triple_well):
    mono = diagnostics.monotonicity_profile(
        diagnostics.stress_energy(junction["result"].field, triple_well), [0.0, 0.0], np.linspace(0.8, 7.5, 10)
    )
    assert mono["max_relative_violation"] <= 1e-6


def test_monotonicity_constant_zero(double_well):
    g = fields.Grid(dim=2, half_width=3.0, points=41)
    mono = diagnostics.monotonicity_profile(
        diagnostics.stress_energy(fields.constant_field(g, [1.0]), double_well), [0.0, 0.0], np.linspace(0.5, 2.5, 5)
    )
    assert np.all(mono["energies"] == 0.0)


def test_monotonicity_strong_scalar(slab_field, double_well):
    mono = diagnostics.monotonicity_profile(
        diagnostics.stress_energy(slab_field, double_well), [0.0, 0.0], np.linspace(0.8, 3.5, 8), strong=True
    )
    assert mono["max_relative_violation"] <= 1e-6


def test_monotonicity_ball_holds_the_whole_node_shell(triple_well):
    # on junction_cli's grid (81^2, half-width 6) the axis node 4h sits at
    # 0.6000000000000001: a radius on that shell, or one ulp either side of
    # it, holds all 49 nodes with k1^2 + k2^2 <= 16, the four axis nodes at
    # distance 4h included
    g = fields.Grid(dim=2, half_width=6.0, points=81)
    f = fields.field_from_function(g, lambda x: np.stack([np.cos(x[:, 0] - 0.3 * x[:, 1]), np.sin(x[:, 1])], axis=1), 2)
    R = g.axis()[g.points // 2 + 4]  # the node coordinate 4h
    radii = [np.nextafter(R, 0.0), R, np.nextafter(R, 1.0)]
    assert R == 0.6000000000000001 and radii[0] == 0.6 == 4 * g.spacing
    energies = diagnostics.monotonicity_profile(diagnostics.stress_energy(f, triple_well), [0.0, 0.0], radii)["energies"]
    u, h, c = f.values, g.spacing, g.points // 2
    expected = 0.0
    for k1, k2 in itertools.product(range(-4, 5), repeat=2):
        if k1 * k1 + k2 * k2 <= 16:
            i, j = c + k1, c + k2
            d1 = (u[i + 1, j] - u[i - 1, j]) / (2 * h)
            d2 = (u[i, j + 1] - u[i, j - 1]) / (2 * h)
            expected += h * h * (0.5 * (d1 @ d1 + d2 @ d2) + triple_well.value(u[i, j]))
    assert energies[0] == energies[1] == energies[2]
    assert energies[1] == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_monotonicity_rejects_outside_radii(slab_field, double_well):
    with pytest.raises(diagnostics.DiagnosticsError):
        diagnostics.monotonicity_profile(diagnostics.stress_energy(slab_field, double_well), [0, 0], [10.0])


def test_modica_scalar_fine_profile(double_well):
    # solved 1D scalar field at h = 2e-3: the pointwise gradient bound holds
    # to below 1e-6 (discrete equipartition)
    prof = connect.solve_connection(double_well, [-1.0], [1.0], 10.0, 10_000, tol=1e-10)
    assert prof.converged
    g1 = fields.Grid(dim=1, half_width=10.0, points=10_001)
    f1 = fields.VectorField(g1, prof.values.copy())
    assert diagnostics.modica_deficit(diagnostics.stress_energy(f1, double_well)) <= 1e-6


def test_modica_slab_h2_level(slab_field, double_well):
    # at desk resolution the deficit of a solved 2D field sits at O(h^2)
    d = diagnostics.modica_deficit(diagnostics.stress_energy(slab_field, double_well))
    assert abs(d) <= 1e-3


def test_modica_reported_for_vector_field(junction, triple_well):
    # vector case: reported, no sign assertion (the scalar bound can fail)
    d = diagnostics.modica_deficit(diagnostics.stress_energy(junction["result"].field, triple_well))
    assert np.isfinite(d)


def test_modica_violated_by_vortex_field():
    # the classical counterexample family: a degree-one vortex for the
    # radially degenerate potential has |grad u|^2/2 > 0 on |u| = 1 where
    # W = 0, so the scalar bound genuinely fails and is only reported
    gl = potentials.ginzburg_landau(2)
    g = fields.Grid(dim=2, half_width=3.0, points=121)
    pts = g.nodes
    r = np.linalg.norm(pts, axis=1)
    prof = np.tanh(2 * r) / np.maximum(r, 1e-12)
    vortex = fields.VectorField(g, (pts * prof[:, None]).reshape(g.shape + (2,)))
    assert diagnostics.modica_deficit(diagnostics.stress_energy(vortex, gl)) > 0.01


def test_pohozaev_constant_and_shift(double_well):
    g = fields.Grid(dim=2, half_width=3.0, points=61)
    fc = fields.constant_field(g, [1.0])
    assert diagnostics.pohozaev_residual(fc, double_well, [0.0, 0.0]) == 0.0
    assert diagnostics.pohozaev_residual(fc, double_well, [0.7, -0.4]) == 0.0


def test_pohozaev_relaxed_field(double_well):
    # well boundary data with an interior bump relaxed to the solution
    g = fields.Grid(dim=2, half_width=3.0, points=61)
    bump = np.exp(-4 * np.sum(g.nodes**2, axis=1)).reshape(g.shape)
    vals = np.ones(g.shape + (1,))
    vals[..., 0] -= 0.3 * bump
    f0 = fields.VectorField(g, vals)
    opts = fields.SolveOptions(residual_target=1e-9, max_iter=20_000, check_every=100)
    res = fields.minimize(f0, double_well, opts=opts)
    r0 = diagnostics.pohozaev_residual(res.field, double_well, [0.0, 0.0])
    assert r0 <= 10.0 * g.spacing
    r_shift = diagnostics.pohozaev_residual(res.field, double_well, [0.5, 0.2])
    assert abs(r0 - r_shift) <= 1e-6 + 0.1 * max(r0, r_shift)


def test_pohozaev_rejects_non_well_boundary(slab_field, double_well):
    with pytest.raises(diagnostics.DiagnosticsError):
        diagnostics.pohozaev_residual(slab_field, double_well, [0.0, 0.0])


# ---------------------------------------------------------------------------
# Hamiltonian identity


def test_hamiltonian_exact_slab(slab_field, double_well):
    ham = diagnostics.hamiltonian_variance(slab_field, double_well, strip=(-2.0, 2.0))
    assert ham["decay_precondition_met"]
    assert ham["std"] <= 1e-6  # identical slices by translation invariance


def test_hamiltonian_junction_strip(junction, triple_well):
    ham = diagnostics.hamiltonian_variance(
        junction["result"].field, triple_well, strip=(-7.0, -3.5)
    )
    assert ham["decay_precondition_met"]
    assert ham["relative_variance"] <= 1e-3


def test_hamiltonian_witness(double_well):
    g = fields.Grid(dim=2, half_width=4.0, points=81)
    rng = np.random.default_rng(2)
    noisy = fields.VectorField(g, np.tanh(g.nodes[:, 0])[:, None].reshape(g.shape + (1,)))
    noisy.values += 0.2 * rng.normal(size=noisy.values.shape)
    ham = diagnostics.hamiltonian_variance(noisy, double_well, strip=(-2, 2), decay_tol=10.0)
    assert ham["std"] > 1e-2


def test_hamiltonian_flags_bad_decay(double_well):
    g = fields.Grid(dim=2, half_width=2.0, points=41)
    f = fields.field_from_function(g, lambda p: 0.3 * np.cos(p[:, :1]), 1)
    ham = diagnostics.hamiltonian_variance(f, double_well, strip=(-1, 1))
    assert not ham["decay_precondition_met"]


# ---------------------------------------------------------------------------
# decay fits, flux, junction angles


def test_decay_fit_junction(junction, triple_well):
    fit = diagnostics.decay_fit(
        junction["result"].field,
        triple_well.wells[0],
        [1.0, 0.0],
        window=(1e-5, 1e-1),
        region_map=junction["region_map"],
    )
    assert fit["ok"] and fit["k"] > 0
    # linearized rate sqrt(lambda_min) = sqrt(18), within 20%
    assert abs(fit["k"] - np.sqrt(18.0)) / np.sqrt(18.0) < 0.2


def test_decay_fit_constant_flagged(double_well):
    g = fields.Grid(dim=2, half_width=3.0, points=41)
    fit = diagnostics.decay_fit(fields.constant_field(g, [1.0]), [1.0], [1.0, 0.0])
    assert not fit["ok"]


def test_flux_slab_symmetry(slab_field, double_well):
    flux = diagnostics.flux_balance(diagnostics.stress_energy(slab_field, double_well), 2.0)
    assert np.max(np.abs(flux)) <= 1e-3


def test_flux_radius_independence(slab_field, double_well):
    se = diagnostics.stress_energy(slab_field, double_well)
    f1 = diagnostics.flux_balance(se, 1.5)
    f2 = diagnostics.flux_balance(se, 2.5)
    assert np.max(np.abs(f1 - f2)) <= 1e-3


def test_flux_junction_young_balance(junction, triple_well, triangle_profile):
    sigma = connect.action(triangle_profile)
    flux = diagnostics.flux_balance(diagnostics.stress_energy(junction["result"].field, triple_well), 5.0)
    assert np.linalg.norm(flux) <= 0.05 * sigma * 2 * np.pi * 5.0


def test_flux_constant_zero(double_well):
    g = fields.Grid(dim=2, half_width=3.0, points=41)
    flux = diagnostics.flux_balance(diagnostics.stress_energy(fields.constant_field(g, [1.0]), double_well), 1.5)
    assert np.max(np.abs(flux)) == 0.0


def test_flux_3d_slab(tetra_well):
    # planar wall in 3D: net force through a sphere cancels by symmetry
    g = fields.Grid(dim=3, half_width=3.0, points=41)
    a, b = tetra_well.wells[0], tetra_well.wells[1]

    def wall(pts):
        t = np.tanh(2.0 * pts[:, 0])[:, None]
        return 0.5 * (a + b)[None, :] + 0.5 * (a - b)[None, :] * t

    f = fields.field_from_function(g, wall, 3)
    se = diagnostics.stress_energy(f, tetra_well)
    flux = diagnostics.flux_balance(se, 1.5, n_samples=4000)
    assert np.max(np.abs(flux)) <= 5e-2
    f1 = diagnostics.flux_balance(se, 2.0, n_samples=4000)
    assert np.isfinite(f1).all()


def test_junction_angles_slab(slab_field):
    ang = diagnostics.junction_angles(
        slab_field, np.array([[-1.0], [1.0]]), r0=2.0, center=np.zeros(2)
    )
    assert np.allclose(np.degrees(ang["angles"]), [180.0, 180.0], atol=1.0)
    assert ang["angles"].sum() == pytest.approx(2 * np.pi, abs=1e-12)


def test_junction_angles_triple(junction, triple_well):
    ang = diagnostics.junction_angles(junction["result"].field, triple_well.wells, r0=5.0)
    assert ang["single_junction"]
    assert np.allclose(ang["center"], [0.0, 0.0], atol=0.2)
    assert np.allclose(np.degrees(ang["angles"]), 120.0, atol=3.0)
    assert ang["angles"].sum() == pytest.approx(2 * np.pi, abs=1e-12)


def test_angle_bridge_young_law(junction, triple_well, triangle_profile):
    # diffuse junction angles agree with the sharp-interface prediction from
    # the measured interface energies
    sigma = connect.action(triangle_profile)
    predicted = partitions.young_angles(sigma, sigma, sigma)
    ang = diagnostics.junction_angles(junction["result"].field, triple_well.wells, r0=5.0)
    assert np.allclose(np.degrees(ang["angles"]), np.degrees(predicted), atol=3.0)


def test_junction_locator(junction, triple_well):
    c = diagnostics.locate_junction(junction["result"].field, triple_well.wells)
    assert np.linalg.norm(c) <= 0.2
