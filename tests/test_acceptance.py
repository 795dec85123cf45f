"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from multiwell import connect, diagnostics, fields, groups, partitions, potentials

SIGMA_DW = 2.0 * math.sqrt(2.0) / 3.0


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_connection_oracle(double_well, dw_profile):
    """1D connection vs the closed form and the quadrature oracle."""
    t0 = time.time()
    prof = dw_profile["profile"]
    sup_err = float(np.max(np.abs(prof.values[:, 0] - np.tanh(prof.eta / np.sqrt(2.0)))))
    import scipy.integrate

    oracle, _ = scipy.integrate.quad(
        lambda u: math.sqrt(2.0 * double_well.value(u)), -1.0, 1.0
    )
    sigma_err = abs(connect.action(prof) - oracle)
    eq1 = connect.equipartition_residual(prof)
    prof_half = connect.solve_connection(double_well, [-1.0], [1.0], 10.0, 4000, tol=1e-8)
    eq_ratio = eq1 / connect.equipartition_residual(prof_half)
    runtime = dw_profile["wall_time"] + (time.time() - t0)
    ok = (
        sup_err <= 1e-3
        and sigma_err <= 1e-3
        and abs(oracle - SIGMA_DW) <= 1e-12
        and eq1 <= 1e-4
        and eq_ratio >= 3.0
        and runtime < 10.0
    )
    _report(
        "criterion 1: 1D connection oracle",
        ok,
        f"sup={sup_err:.2e} dsigma={sigma_err:.2e} equip={eq1:.2e} ratio={eq_ratio:.2f} t={runtime:.1f}s",
    )


def test_criterion_2_group_orbit_exactness(cubic, tetrahedral):
    """Cube placements and the tetrahedral counts, exactly."""
    t0 = time.time()
    s1 = np.array([1.0, 1.0, 1.0])
    s2 = np.array([0.0, 1.0, 1.0])
    s3 = np.array([0.0, 0.0, 1.0])
    placements = [
        (np.zeros(3), 1),
        (0.7 * s3, 6),
        (0.7 * s1, 8),
        (0.7 * s2, 12),
        (0.4 * s2 + 0.3 * s3, 24),
        (0.2 * s1 + 0.3 * s2 + 0.4 * s3, 48),
    ]
    cube_ok = all(groups.orbit_count(cubic, p) == n for p, n in placements)
    a1 = potentials.TETRA_A1
    tet_ok = (
        tetrahedral.order == 24
        and groups.stabilizer(tetrahedral, a1).order == 6
        and groups.orbit_count(tetrahedral, a1) == 4
    )
    runtime = time.time() - t0
    ok = cube_ok and tet_ok and runtime < 1.0
    _report(
        "criterion 2: group/orbit exactness",
        ok,
        f"cube N in {{1,6,8,12,24,48}}: {cube_ok}, |T|=24 |stab|=6 N=4: {tet_ok}, t={runtime:.2f}s",
    )


def test_criterion_3_tetra_potential(tetra_well, tetrahedral):
    """Quadruple-well values, invariance, nondegeneracy."""
    t0 = time.time()
    w_a1 = abs(tetra_well.value(potentials.TETRA_A1))
    rng = np.random.default_rng(0)
    u = rng.uniform(-2.0, 2.0, (100, 3))
    inv = max(
        float(np.max(np.abs(tetra_well.value_field(u @ g.T) - tetra_well.value_field(u))))
        for g in tetrahedral.elements
    )
    lam = min(float(np.linalg.eigvalsh(tetra_well.hess(a))[0]) for a in tetra_well.wells)
    runtime = time.time() - t0
    ok = w_a1 <= 1e-12 and inv <= 1e-10 and lam > 0 and runtime < 1.0
    _report(
        "criterion 3: tetrahedral potential",
        ok,
        f"W(a1)={w_a1:.1e} inv={inv:.1e} lam_min={lam:.3f} t={runtime:.2f}s",
    )


def test_criterion_4_equivariant_junction(junction, triple_well):
    """Triple-well dihedral-3 junction on the 161^2 grid."""
    res = junction["result"]
    rm = junction["region_map"]
    residual_ok = res.converged and res.residual <= 1e-3
    ang = diagnostics.junction_angles(res.field, triple_well.wells, r0=5.0)
    angles_ok = bool(np.all(np.abs(np.degrees(ang["angles"]) - 120.0) <= 3.0))
    se = diagnostics.stress_energy(res.field, triple_well)
    mono = diagnostics.monotonicity_profile(se, [0.0, 0.0], np.linspace(0.8, 7.5, 10))
    mono_ok = mono["max_relative_violation"] <= 1e-6
    fit = diagnostics.decay_fit(
        res.field, triple_well.wells[0], [1.0, 0.0], window=(1e-5, 1e-1), region_map=rm
    )
    decay_ok = fit["ok"] and fit["k"] > 0
    ham = diagnostics.hamiltonian_variance(se, strip=(-7.0, -3.5))
    ham_ok = ham["decay_precondition_met"] and ham["relative_variance"] <= 1e-3
    runtime_ok = junction["wall_time"] <= 300.0
    ok = residual_ok and angles_ok and mono_ok and decay_ok and ham_ok and runtime_ok
    _report(
        "criterion 4: 2D equivariant junction",
        ok,
        f"res={res.residual:.2e} angles={np.round(np.degrees(ang['angles']), 1)} "
        f"mono={mono['max_relative_violation']:.1e} k={fit['k']:.2f} "
        f"ham={ham['relative_variance']:.2e} t={junction['wall_time']:.0f}s",
    )


def test_criterion_5_identity_consistency(double_well):
    """Stress-energy divergence order, flux radius independence, Modica."""

    def slab_fn(pts):
        return np.tanh(pts[:, 0] / np.sqrt(2.0))[:, None]

    divs = []
    for P in (81, 161):
        g = fields.Grid(dim=2, half_width=4.0, points=P)
        f = fields.field_from_function(g, slab_fn, 1)
        divs.append(diagnostics.divergence_residual(diagnostics.stress_energy(f, double_well)))
    div_ok = divs[0] / divs[1] >= 3.5

    g = fields.Grid(dim=2, half_width=4.0, points=161)
    f = fields.field_from_function(g, slab_fn, 1)
    se = diagnostics.stress_energy(f, double_well)
    f1 = diagnostics.flux_balance(se, 1.5)
    f2 = diagnostics.flux_balance(se, 2.5)
    flux_ok = float(np.max(np.abs(f1 - f2))) <= 1e-3

    prof = connect.solve_connection(double_well, [-1.0], [1.0], 10.0, 10_000, tol=1e-10)
    g1 = fields.Grid(dim=1, half_width=10.0, points=10_001)
    deficit = diagnostics.modica_deficit(
        diagnostics.stress_energy(fields.VectorField(g1, prof.values.copy()), double_well)
    )
    modica_ok = deficit <= 1e-6

    ok = div_ok and flux_ok and modica_ok
    _report(
        "criterion 5: identity consistency",
        ok,
        f"div ratio={divs[0] / divs[1]:.2f} flux diff={np.max(np.abs(f1 - f2)):.1e} "
        f"modica={deficit:.1e}",
    )


def test_criterion_6_dirichlet_hierarchy(slab_solution, double_well):
    """Slab Dirichlet problem: interior locked to the 1D profile."""
    res = slab_solution["result"]
    g = slab_solution["grid"]
    exact = np.tanh(g.nodes[:, 0] / np.sqrt(2.0)).reshape(g.shape)
    err = np.abs(res.field.values[..., 0] - exact)
    sup_ok = float(err[1:-1, 1:-1].max()) <= 1e-3

    # decay shape: off-profile equivariant boundary data relaxes to the
    # profile exponentially fast in the distance to the boundary
    t0 = time.time()

    def wrong_width(pts):
        return np.tanh(pts[:, 0])[:, None]

    f0 = fields.field_from_function(g, wrong_width, 1)
    opts = fields.SolveOptions(residual_target=1e-4, max_iter=40_000)
    res2 = fields.solve_dirichlet(f0, double_well, wrong_width, opts=opts)
    err2 = np.abs(res2.field.values[..., 0] - exact)
    ax = g.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    R = g.half_width
    dist = np.minimum.reduce([X + R, R - X, Y + R, R - Y])
    bands = np.linspace(0.1, 2.4, 9)
    sups = [
        float(err2[(dist >= lo) & (dist < hi)].max()) for lo, hi in zip(bands[:-1], bands[1:])
    ]
    slope = float(np.polyfit((bands[:-1] + bands[1:]) / 2, np.log(sups), 1)[0])
    runtime = slab_solution["wall_time"] + (time.time() - t0)
    ok = sup_ok and slope < 0 and runtime < 60.0
    _report(
        "criterion 6: Dirichlet hierarchy check",
        ok,
        f"sup={err[1:-1, 1:-1].max():.1e} slope={slope:.2f} t={runtime:.0f}s",
    )


def test_criterion_7_steiner_suite():
    """Closed-form Steiner point vs brute force, capture, and Young angles."""
    from test_partitions import _brute_force, equilateral, random_steiner_instances

    t0 = time.time()
    tri = equilateral()
    P, info = partitions.steiner_point(tri)
    centroid_ok = partitions.first_order_residual(P, tri.vertices, tri.weights) <= 1e-12

    match_ok = True
    for inst in random_steiner_instances():
        P, _ = partitions.steiner_point(inst)
        bf, cell = _brute_force(inst)
        if not np.all(np.abs(P - bf) <= 2 * cell + 1e-12):
            match_ok = False
            break

    ang = math.radians(150.0)
    obtuse = partitions.WeightedTriangle(
        A=[1.0, 0.0], B=[math.cos(ang), math.sin(ang)], C=[0.0, 0.0], e12=1.0, e13=1.0, e23=1.0
    )
    Pv, info_v = partitions.steiner_point(obtuse)
    capture_ok = info_v["captured"] and np.allclose(Pv, [0.0, 0.0])

    th = partitions.young_angles(1.0, 1.0, 1.0)
    young_ok = all(abs(t - 2 * math.pi / 3) <= 1e-12 for t in th)
    runtime = time.time() - t0
    ok = centroid_ok and match_ok and capture_ok and young_ok and runtime < 30.0
    _report(
        "criterion 7: Steiner suite",
        ok,
        f"centroid={centroid_ok} oracle20={match_ok} capture={capture_ok} "
        f"young={young_ok} t={runtime:.1f}s",
    )


def test_criterion_8_partition_calculus():
    """Densities, metric reduction, connectedness energy gap, blow-down."""
    tri = partitions.triod()
    line = partitions.line_partition()
    radii = np.linspace(0.1, 3.0, 10)
    dens_ok = all(
        abs(partitions.density(tri, [0, 0], float(r)) - 1.5) <= 1e-12
        and abs(partitions.density(line, [0, 0], float(r)) - 1.0) <= 1e-12
        for r in radii
    )

    e = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    red = partitions.metric_reduce(partitions.TensionMatrix(e))
    red2 = partitions.metric_reduce(red)
    reduce_ok = red[0, 2] == pytest.approx(2.0) and np.allclose(red2.e, red.e)

    s = 0.4
    R = 1.0
    dj = partitions.double_junction(s)
    merged = partitions.merged_competitor(s, R)
    w = partitions.disk([0.0, 0.0], R)
    t = partitions.TensionMatrix(np.ones((3, 3)) - np.eye(3))
    gap_ok = partitions.partition_energy(dj, t, w) > partitions.partition_energy(merged, t, w)

    scales = [1.0, 0.5, 0.25, 0.125]
    seq = partitions.blow_down(dj, [0.0, 0.0], scales)
    xc = partitions.x_cone()
    dists = [partitions.hausdorff_distance(q, xc, w) for q in seq]
    exact = [s * mu * math.sqrt(3.0) / 4.0 for mu in scales]
    blow_ok = (
        all(d <= s * mu + 5e-3 for mu, d in zip(scales, dists))
        and all(abs(d - x) <= 1e-12 * x for d, x in zip(dists, exact))
        and dists[-1] < dists[0]
    )

    ok = dens_ok and reduce_ok and gap_ok and blow_ok
    _report(
        "criterion 8: partition calculus",
        ok,
        f"densities={dens_ok} e*13={red[0, 2]:.1f} energy gap={gap_ok} "
        f"blowdown={['%.3f' % d for d in dists]}",
    )
