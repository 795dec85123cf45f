import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse
import scipy.sparse.linalg

from multiwell import cli, connect, fields, groups, potentials

SIGMA_DW = 2.0 * np.sqrt(2.0) / 3.0  # int sqrt(2 W) du for the double well


def test_double_well_profile_matches_tanh(dw_profile):
    prof = dw_profile["profile"]
    assert prof.converged and prof.residual <= 1e-8
    exact = np.tanh(prof.eta / np.sqrt(2.0))
    assert np.max(np.abs(prof.values[:, 0] - exact)) <= 1e-3


def test_action_against_quadrature_oracle(dw_profile, double_well):
    # independent oracle: sigma = int_{-1}^{1} sqrt(2 W(u)) du
    oracle, err = scipy.integrate.quad(lambda u: np.sqrt(2.0 * double_well.value(u)), -1.0, 1.0)
    assert err < 1e-10
    assert oracle == pytest.approx(SIGMA_DW, abs=1e-10)
    assert connect.action(dw_profile["profile"]) == pytest.approx(oracle, abs=1e-3)


def test_equipartition_residual_and_order(double_well, dw_profile):
    r1 = connect.equipartition_residual(dw_profile["profile"])
    assert r1 <= 1e-4
    prof2 = connect.solve_connection(double_well, [-1.0], [1.0], 10.0, 4000, tol=1e-8)
    r2 = connect.equipartition_residual(prof2)
    assert r1 / r2 >= 3.0


def test_equipartition_trivial_and_witness(double_well, dw_profile):
    prof = dw_profile["profile"]
    const = connect.ConnectionProfile(
        eta=prof.eta,
        values=np.ones_like(prof.values),
        a_minus=np.array([1.0]),
        a_plus=np.array([1.0]),
        potential=double_well,
    )
    assert connect.equipartition_residual(const) == 0.0
    perturbed = connect.ConnectionProfile(
        eta=prof.eta,
        values=prof.values + 0.05 * np.sin(prof.eta)[:, None],
        a_minus=prof.a_minus,
        a_plus=prof.a_plus,
        potential=double_well,
    )
    assert connect.equipartition_residual(perturbed) > connect.equipartition_residual(prof)


def test_action_scaling_competitor(double_well, dw_profile):
    # compressing the profile breaks equipartition and raises the action
    prof = dw_profile["profile"]
    squeezed = connect.ConnectionProfile(
        eta=prof.eta,
        values=prof.sample(2.0 * prof.eta),
        a_minus=prof.a_minus,
        a_plus=prof.a_plus,
        potential=double_well,
    )
    assert connect.action(squeezed) > connect.action(prof)


def test_action_minimality_among_perturbations(double_well, dw_profile):
    prof = dw_profile["profile"]
    base = connect.action(prof)
    rng = np.random.default_rng(5)
    bump = np.exp(-0.5 * prof.eta**2)
    for _ in range(20):
        z = rng.normal(scale=0.05) * np.sin(rng.uniform(0.3, 3.0) * prof.eta) * bump
        comp = connect.ConnectionProfile(
            eta=prof.eta,
            values=prof.values + z[:, None],
            a_minus=prof.a_minus,
            a_plus=prof.a_plus,
            potential=double_well,
        )
        assert connect.action(comp) >= base - 1e-12


def test_identical_endpoints_rejected(double_well):
    with pytest.raises(connect.ConnectionError):
        connect.solve_connection(double_well, [1.0], [1.0], 10.0, 100)


def test_non_well_endpoint_rejected(double_well):
    with pytest.raises(connect.ConnectionError):
        connect.solve_connection(double_well, [-1.0], [0.5], 10.0, 100)


@pytest.mark.parametrize("endpoint", [[np.nan], [np.inf]], ids=["nan", "inf"])
def test_non_finite_endpoint_rejected(double_well, endpoint):
    # |W(nan)| > WELL_TOL is False: a nan endpoint passed as a zero of W
    with pytest.raises(ValueError, match="endpoints must be finite"):
        connect.solve_connection(double_well, endpoint, [1.0], 10.0, 100)


@pytest.mark.parametrize(
    "kwargs, key",
    [
        ({"half_length": -1.0}, "half_length"),
        ({"half_length": 0.0}, "half_length"),
        ({"half_length": float("nan")}, "half_length"),
        ({"intervals": 1}, "intervals"),
        ({"intervals": 2}, "intervals"),
        ({"tol": -1.0}, "tol"),
        ({"tol": float("nan")}, "tol"),
    ],
)
def test_bad_discretization_rejected(double_well, kwargs, key):
    with pytest.raises(ValueError, match=key):
        connect.solve_connection(double_well, [-1.0], [1.0], **kwargs)


def _class_defect(prof) -> float:
    """max over nodes of |U(-eta) - r U(eta)|, r the reflection swapping the wells."""
    r = groups.reflection_matrix(prof.a_plus - prof.a_minus)
    return float(np.max(np.abs(prof.values[::-1] - prof.values @ r.T)))


@pytest.mark.parametrize(
    "name, half_length, intervals, tol",
    [
        ("double_well", 10.0, 2000, 1e-8),
        ("double_well", 10.0, 4000, 1e-8),
        ("double_well", 6.0, 600, 1e-8),
        ("double_well", 10.0, 10_000, 1e-10),
        ("triple_well", 6.0, 1200, 1e-9),
        ("triple_well", 5.0, 1000, 1e-9),
        ("tetra_well", 5.0, 500, 1e-8),
        ("tetra_well", 5.0, 500, 1e-9),
    ],
)
def test_catalog_connections_lie_in_the_symmetric_class(name, half_length, intervals, tol):
    # every catalog well pair is swapped by a reflection that leaves W
    # invariant, so its connection solves in the class U(-eta) = r U(eta):
    # the clamped interval's near-null translation mode is never entered
    pot = potentials.get_potential(name)
    for i, j in itertools.permutations(range(len(pot.wells)), 2):
        prof = connect.solve_connection(pot, pot.wells[i], pot.wells[j], half_length, intervals, tol=tol)
        assert prof.converged and prof.residual <= tol
        assert _class_defect(prof) <= 1e-12
        r = groups.reflection_matrix(prof.a_plus - prof.a_minus)
        if np.array_equal(np.abs(r), np.eye(pot.m)):
            # a coordinate sign flip is exact in floating point, so the
            # projected start and directions keep the class exactly
            assert _class_defect(prof) == 0.0


# W = (u^2 - 1)^2 (u^2 + u/2 + 1) / 4: wells at -1 and +1, W(-u) != W(u)
ASYMMETRIC_WELLS = {
    "name": "asymmetric_double_well",
    "monomials": [
        {"coeff": c, "exponents": [e]}
        for c, e in [(0.25, 6), (0.125, 5), (-0.25, 4), (-0.25, 3), (-0.25, 2), (0.125, 1), (0.25, 0)]
    ],
    "wells": [[-1.0], [1.0]],
}


@pytest.mark.parametrize("name, intervals", [("triple_well", 1200), ("tetra_well", 501)], ids=["odd", "even"])
def test_connection_projection_matches_the_reversal_formula(name, intervals):
    # the node projection of the pairs (1, I) and (-1, r) on (m, nodes)
    # columns is the reversal formula (V + V reversed r^T) / 2 on (nodes, m)
    # rows bit for bit, on 1201 nodes and on 502, where no node sits at eta = 0
    pot = potentials.get_potential(name)
    a_minus, a_plus = pot.wells[1], pot.wells[0]
    project = connect._symmetric_projection(pot, a_minus, a_plus)
    r = groups.reflection_matrix(a_plus - a_minus)
    V = np.random.default_rng(intervals).normal(size=(intervals + 1, pot.m))
    assert np.array_equal(project(V.T).T, 0.5 * (V + V[::-1] @ r.T))


def test_connection_without_swap_symmetry_is_not_projected():
    pot = potentials.potential_from_json(ASYMMETRIC_WELLS)
    a_minus, a_plus = np.array([-1.0]), np.array([1.0])
    assert connect._symmetric_projection(pot, a_minus, a_plus) is None
    prof = connect.solve_connection(pot, a_minus, a_plus)  # the CLI defaults
    assert prof.converged and prof.residual <= 1e-8
    assert _class_defect(prof) > 1e-2  # the connection itself is not r-symmetric
    oracle, _ = scipy.integrate.quad(lambda u: np.sqrt(2.0 * pot.value(u)), -1.0, 1.0)
    assert connect.action(prof) == pytest.approx(oracle, abs=1e-4)


def test_connection_without_swap_symmetry_has_no_gap(tmp_path):
    # no symmetric class, so no gap: connect1d reports null and succeeds
    (tmp_path / "asym.json").write_text(json.dumps(ASYMMETRIC_WELLS))
    (tmp_path / "c.json").write_text(json.dumps({"potential": str(tmp_path / "asym.json")}))
    out = tmp_path / "out"
    assert cli.main(["connect1d", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["hyperbolicity_gap"] is None


def test_reflection_invariance_is_sampled_once_per_potential_and_reflection(monkeypatch):
    # the solve and its gap build the same class projection; only the first
    # build samples W.  A hand-built profile on a fresh potential is sampled
    # afresh, so its gap still finds W not invariant
    calls, residual = [], potentials.invariance_residual
    monkeypatch.setattr(potentials, "invariance_residual", lambda *args: calls.append(args) or residual(*args))
    pot = potentials.scalar_double_well()
    prof = connect.solve_connection(pot, [-1.0], [1.0], half_length=5.0, intervals=200)
    assert connect.hyperbolicity_gap(prof) > 0.0
    assert connect._symmetric_projection(pot, np.array([1.0]), np.array([-1.0])) is not None
    assert len(calls) == 1  # the reversed pair has the same reflection
    asym = potentials.potential_from_json(ASYMMETRIC_WELLS)
    eta = np.linspace(-5.0, 5.0, 201)
    hand = connect.ConnectionProfile(eta, np.tanh(eta)[:, None], np.array([-1.0]), np.array([1.0]), asym)
    assert connect.hyperbolicity_gap(hand) is None
    assert connect.hyperbolicity_gap(hand) is None  # reads the kept verdict
    assert len(calls) == 2


def test_symmetric_class_solve_never_exhausts_cg(monkeypatch):
    # the Newton right-hand side is projected onto the class before CG: its
    # part outside the class is rounding that no class direction can reduce,
    # and chasing it would run every late step to the CG iteration cap
    hessian_product, products = fields._hessian_product, []

    def counting_hessian_product(state, potential, h):
        apply = hessian_product(state, potential, h)
        products.append(0)  # one Hessian per Newton step

        def counted(v):
            products[-1] += 1
            return apply(v)

        return counted

    monkeypatch.setattr(fields, "_hessian_product", counting_hessian_product)
    pot = potentials.get_potential("triple_well")
    rm = groups.build_region_map(groups.get_group("dihedral_3"), pot.wells[0])
    prof = connect.solve_connection(pot, rm.wells[1], rm.wells[0], 6.0, 1200, tol=1e-9)  # `multiwell solve`'s
    assert prof.converged and products
    assert max(products) < fields.CG_MAX_ITER, products


def test_triple_well_connection(triangle_profile, triple_well):
    assert triangle_profile.converged
    assert triangle_profile.residual <= 1e-9
    assert connect.action(triangle_profile) > 0
    assert connect.equipartition_residual(triangle_profile) <= 1e-3


@pytest.mark.parametrize("intervals", [600, 1200])
def test_triple_well_action_converges_to_the_bogomolny_tension(triple_well, intervals):
    # W = |f(u)|^2 with f = u^3 - 1 holomorphic in u = u1 + i u2, so the
    # Bogomolny bound gives sigma = sqrt(2) |F(a_2) - F(a_1)| with F' = f,
    # F = u^4/4 - u: 3 sqrt(6)/4; the minimized discrete action approaches it
    # at O(h^2) with the constant -0.1931 (-0.19309 at 600 intervals, -0.19307
    # at 1200)
    sigma = 3.0 * np.sqrt(6.0) / 4.0
    prof = connect.solve_connection(triple_well, triple_well.wells[1], triple_well.wells[0], 6.0, intervals, tol=1e-9)
    h = 12.0 / intervals
    assert prof.converged
    assert (connect.action(prof) - sigma) / h**2 == pytest.approx(-0.1931, rel=0.02)


def test_action_is_the_energy_newton_minimized(triple_well, monkeypatch):
    # sigma is the last energy of the connection's Newton loop, not a second
    # quadrature of the solved profile
    runs, newton_krylov = [], fields.newton_krylov
    monkeypatch.setattr(fields, "newton_krylov", lambda *args: runs.append(newton_krylov(*args)) or runs[-1])
    prof = connect.solve_connection(triple_well, triple_well.wells[1], triple_well.wells[0], 6.0, 600, tol=1e-9)
    values, _, _, history, _ = runs[0]
    assert prof.converged and np.array_equal(prof.values, values)
    assert connect.action(prof) == pytest.approx(history[-1], rel=1e-14, abs=0.0)


def test_endpoint_decay(dw_profile, double_well):
    K, k = connect.tail_decay_rate(dw_profile["profile"])
    expected = np.sqrt(2.0) * double_well.c  # sqrt of the well Hessian eigenvalue
    assert k > 0.8 * double_well.c
    assert abs(k - expected) / expected < 0.2


def _newton_matrix(U: np.ndarray, h: float, potential):
    """The linearization v -> v'' - W_uu(U) v over interior nodes, Dirichlet
    ends, as a scipy CSC matrix."""
    n_int, m = U.shape[0] - 2, U.shape[1]
    lap = scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n_int, n_int)) / h**2
    H = scipy.sparse.bsr_matrix((potential.hess_field(U[1:-1]), np.arange(n_int), np.arange(n_int + 1)))
    return (scipy.sparse.kron(lap, scipy.sparse.eye(m)) - H).tocsc()


def linearized_spectrum(profile, k: int = 6):
    """Oracle: the k eigenvalues of L v = v'' - W_uu(U) v nearest zero
    (Dirichlet ends, ARPACK shift-invert), sorted by |eigenvalue|, with
    parities: +1 for eigenvectors nearer the class v(-eta) = T v(eta), T the
    reflection swapping the endpoint wells, -1 otherwise (the translation
    mode U' lives in the -1 sector)."""
    U = profile.values
    A = _newton_matrix(U, profile.h, profile.potential)
    k = min(k, A.shape[0] - 2)
    vals, vecs = scipy.sparse.linalg.eigsh(A, k=k, sigma=0.0, which="LM", v0=np.ones(A.shape[0]))
    order = np.argsort(np.abs(vals))
    vals, vecs = vals[order], vecs[:, order]
    n = profile.a_plus - profile.a_minus
    T = groups.reflection_matrix(n) if np.any(n) else np.eye(n.size)  # coincident endpoints: r = I
    parities = []
    for v in vecs.T:
        sv = (v.reshape(U.shape[0] - 2, -1)[::-1] @ T.T).ravel()
        parities.append(1 if np.linalg.norm(sv - v) < np.linalg.norm(sv + v) else -1)
    return vals, np.array(parities)


def test_hyperbolicity_gap_double_well(dw_profile):
    # symmetric-class gap of the linearization at tanh: exactly 3/2
    gap = connect.hyperbolicity_gap(dw_profile["profile"])
    assert gap == pytest.approx(1.5, abs=0.02)


@pytest.mark.parametrize(
    "name, pair, half_length, intervals",
    [
        ("double_well", (0, 1), 10.0, 400),
        ("triple_well", (1, 0), 6.0, 1200),
        ("triple_well", (0, 1), 6.0, 1200),
        # a doubly degenerate bottom of the class spectrum: 4.000123 twice
        ("tetra_well", (1, 0), 5.0, 500),
        # a close cluster on a coarse grid (4.004859, then 4.015461 twice):
        # Ritz vectors from an orthonormal basis computed outright (QR, or
        # the SVD's left singular vectors) sank to 3.99 here
        ("tetra_well", (1, 0), 3.0, 20),
        # fine grids: |A x - lambda x| has a rounding floor of about
        # eps |x| / h^2, which a stop at 1e-10 lambda met at 40 000
        # intervals only by chance
        ("double_well", (0, 1), 10.0, 20_000),
        ("double_well", (0, 1), 10.0, 40_000),
    ],
)
def test_hyperbolicity_gap_matches_arpack(name, pair, half_length, intervals):
    pot = potentials.get_potential(name)
    prof = connect.solve_connection(pot, pot.wells[pair[0]], pot.wells[pair[1]], half_length, intervals, tol=1e-9)
    vals, parities = linearized_spectrum(prof)
    assert parities[0] == -1  # the translation mode, outside the class
    oracle = float(np.min(np.abs(vals[parities == 1])))
    assert connect.hyperbolicity_gap(prof) == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("half_length", [10.0, np.pi])
def test_hyperbolicity_gap_of_the_saddle_is_negative(double_well, half_length):
    # U = 0 between the wells is no minimizer: A = -Delta_h - 1 on odd
    # vectors, whose lowest mode is sin(pi eta / L), so the gap is
    # (2/h sin(pi/K))^2 - 1; at L = pi it is about -2e-5, a gap near 0
    K = 400
    h = 2.0 * half_length / K
    saddle = connect.ConnectionProfile(
        eta=np.linspace(-half_length, half_length, K + 1),
        values=np.zeros((K + 1, 1)),
        a_minus=np.array([-1.0]),
        a_plus=np.array([1.0]),
        potential=double_well,
    )
    exact = (2.0 / h * np.sin(np.pi / K)) ** 2 - 1.0
    assert exact < 0
    assert connect.hyperbolicity_gap(saddle) == pytest.approx(exact, rel=1e-9)


def test_translation_mode_is_antisymmetric(dw_profile):
    vals, parities = linearized_spectrum(dw_profile["profile"])
    assert abs(vals[0]) < 1e-2  # near-zero translation mode
    assert parities[0] == -1  # excluded from the symmetric class


def test_constant_profile_gap_bounded_below(double_well):
    eta = np.linspace(-10, 10, 801)
    const = connect.ConnectionProfile(
        eta=eta,
        values=np.ones((801, 1)),
        a_minus=np.array([1.0]),
        a_plus=np.array([1.0]),
        potential=double_well,
    )
    vals, _ = linearized_spectrum(const)
    gap = float(np.min(np.abs(vals)))
    assert gap >= 2.0 * double_well.c**2 - 0.05  # operator is -(d/dx)^2 + W''(a)


def test_profile_sample_and_reverse(dw_profile):
    prof = dw_profile["profile"]
    rev = prof.reversed()
    assert np.allclose(rev.a_minus, prof.a_plus)
    assert np.allclose(rev.sample(np.array([0.0])), prof.sample(np.array([0.0])), atol=1e-9)
    assert np.allclose(prof.sample(np.array([100.0]))[0], prof.a_plus)


def _searchsorted_lerp(prof, t):
    """The clamped linear interpolation by ``np.searchsorted`` that
    ``ConnectionProfile.sample`` once computed, kept as the reference."""
    t = np.clip(np.asarray(t, dtype=np.float64), prof.eta[0], prof.eta[-1])
    idx = np.clip(np.searchsorted(prof.eta, t) - 1, 0, len(prof.eta) - 2)
    frac = ((t - prof.eta[idx]) / prof.h)[..., None]
    return prof.values[idx] * (1 - frac) + prof.values[idx + 1] * frac


@pytest.mark.parametrize("name", ["dw_profile", "triangle_profile"])
def test_profile_sample_matches_searchsorted_lerp(name, request):
    fixture = request.getfixturevalue(name)
    prof = fixture["profile"] if name == "dw_profile" else fixture
    L = prof.eta[-1]
    rng = np.random.default_rng(2)
    inside = np.sort(rng.uniform(-L, L, 2001))
    cases = {
        "sorted": np.concatenate([inside, prof.eta]),  # the nodes themselves included
        "shuffled": rng.permutation(inside),
        "out of range": np.concatenate([rng.uniform(-3 * L, -L, 50), rng.uniform(L, 3 * L, 50), [-np.inf, np.inf]]),
    }
    for t in cases.values():
        np.testing.assert_allclose(prof.sample(t), _searchsorted_lerp(prof, t), rtol=0, atol=1e-13)
    # the shape contract: t.shape + (m,)
    for t in (np.float64(0.3), inside[:7], inside[:12].reshape(3, 4)):
        out = prof.sample(t)
        assert out.shape == np.shape(t) + (prof.m,)
        np.testing.assert_allclose(out, _searchsorted_lerp(prof, t), rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", ["dw_profile", "triangle_profile", "random"])
def test_profile_derivative_matches_the_explicit_stencils(name, request, double_well):
    # oracle: the centered difference inside and the one-sided second-order
    # ends (-3 U0 + 4 U1 - U2) / 2h that ``derivative`` once spelled out
    if name == "random":
        eta = np.linspace(-3.0, 3.0, 41)
        U = np.random.default_rng(4).normal(size=(41, 2))
        prof = connect.ConnectionProfile(eta, U, U[0], U[-1], double_well)
    else:
        fixture = request.getfixturevalue(name)
        prof = fixture["profile"] if name == "dw_profile" else fixture
    U, h = prof.values, prof.h
    dU = prof.derivative()
    assert np.array_equal(dU[1:-1], (U[2:] - U[:-2]) / (2 * h))
    ends = {
        0: ((-3 * U[0] + 4 * U[1] - U[2]) / (2 * h), 3 * abs(U[0]) + 4 * abs(U[1]) + abs(U[2])),
        -1: ((3 * U[-1] - 4 * U[-2] + U[-3]) / (2 * h), 3 * abs(U[-1]) + 4 * abs(U[-2]) + abs(U[-3])),
    }
    for j, (old, terms) in ends.items():
        # relative to the stencil's terms, whose cancellation sets the rounding
        assert np.all(np.abs(dU[j] - old) <= 1e-14 * terms / (2 * h))


def test_save_profile_roundtrip(tmp_path, dw_profile):
    path = tmp_path / "profile.csv"
    connect.save_profile(dw_profile["profile"], path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], dw_profile["profile"].eta)
    assert np.array_equal(data[:, 1], dw_profile["profile"].values[:, 0])


def test_newton_stops_when_the_residual_stalls(double_well, monkeypatch):
    # tol 1e-11 lies below the rounding floor of the double well at 10 000
    # intervals (5.2e-11, reached in 4 steps): the loop stops STALL_STEPS
    # steps later as stalled, not after all MAX_STEPS
    runs, newton_krylov = [], fields.newton_krylov
    monkeypatch.setattr(fields, "newton_krylov", lambda *args: runs.append(newton_krylov(*args)) or runs[-1])
    prof = connect.solve_connection(double_well, [-1.0], [1.0], 10.0, 10_000, tol=1e-11)
    _, res, steps, _, stop = runs[0]
    assert not prof.converged and prof.residual == res < 1e-10
    assert stop == "stalled" and steps <= 4 + fields.STALL_STEPS


def test_double_well_connection_goes_below_the_summed_stencil_floor(double_well):
    # criterion 1's grid (h = 0.002): the residual formed in difference form
    # reaches 5.4e-11, where the summed stencil's rounding held it at 1.06e-10
    prof = connect.solve_connection(double_well, [-1.0], [1.0], 10.0, 10_000, tol=7e-11)
    assert prof.converged and prof.residual <= 7e-11


SCIPY_FREE_RUN = """
import sys
import multiwell.cli
from multiwell import connect, fields, groups, potentials


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


assert not scipy_modules(), scipy_modules()
pot = potentials.get_potential("tetra_well")
group = groups.get_group("tetrahedral")
rm = groups.build_region_map(group, pot.wells[0])
prof = connect.solve_connection(pot, rm.wells[1], rm.wells[0], 5.0, 500, tol=1e-9)
u0 = fields.initial_guess(group, rm, prof, fields.Grid(dim=3, half_width=5.0, points=9))
fields.minimize(u0, pot, symmetry=group, opts=fields.SolveOptions(max_iter=2))
assert not scipy_modules(), scipy_modules()
dw = potentials.get_potential("double_well")
tw = potentials.get_potential("triple_well")
dw_prof = connect.solve_connection(dw, [-1.0], [1.0], 10.0, 400, tol=1e-9)
tw_prof = connect.solve_connection(tw, tw.wells[1], tw.wells[0], 6.0, 1200, tol=1e-9)
print(repr(connect.hyperbolicity_gap(dw_prof)), repr(connect.hyperbolicity_gap(tw_prof)))
config = sys.argv[1] + "/c.json"
with open(config, "w") as fh:
    fh.write('{"potential": "triple_well", "half_length": 6.0, "intervals": 1200, "tol": 1e-9}')
assert multiwell.cli.main(["connect1d", "--config", config, "--out", sys.argv[1]]) == 0
print(bool(scipy_modules()))
"""


def test_solves_never_load_scipy(tmp_path):
    # loading the package, connections, their gap, initial data, field
    # solves and the connect1d subcommand need numpy alone
    src = str(Path(connect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    gaps, loaded = done.stdout.split("\n")[:2]
    # reference gaps: ARPACK on solves preconditioned by scipy's dstn; the profiles differ only by rounding
    assert [float(g) for g in gaps.split()] == pytest.approx([1.4999148283329728, 7.0425753410909016], rel=1e-9)
    assert loaded == "False"
