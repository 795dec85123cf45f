import numpy as np
import pytest

from multiwell import groups, potentials


def test_double_well_values(double_well):
    assert double_well.value(1.0) == 0.0
    assert double_well.value(-1.0) == 0.0
    assert double_well.value(0.0) == pytest.approx(0.25)
    assert double_well.hess(np.array([1.0]))[0, 0] == pytest.approx(2.0)
    assert double_well.c == pytest.approx(1.0)
    assert np.allclose(sorted(double_well.wells.ravel()), [-1.0, 1.0])


def test_ginzburg_landau_degenerate_control():
    gl = potentials.ginzburg_landau(2)
    assert gl.value([1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert gl.value([0.0, 0.0]) == pytest.approx(0.25)
    assert np.allclose(gl.grad([1.0, 0.0]), 0.0)
    assert not gl.nondegenerate
    assert gl.wells.shape[0] == 0
    # whole unit circle is a zero set
    th = np.linspace(0, 2 * np.pi, 17)
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert np.max(np.abs(gl.value_field(ring))) < 1e-15


@pytest.mark.parametrize("m", [2, 3])
def test_ginzburg_landau_is_the_exact_expansion(m):
    # (|u|^2 - 1)^2 / 4 = sum u_i^4 / 4 + sum_{i<j} u_i^2 u_j^2 / 2 - |u|^2 / 2 + 1/4
    expected = {(0,) * m: 0.25}
    for i in range(m):
        e = np.eye(m, dtype=int)[i]
        expected[tuple(4 * e)], expected[tuple(2 * e)] = 0.25, -0.5
        for j in range(i + 1, m):
            expected[tuple(2 * e + 2 * np.eye(m, dtype=int)[j])] = 0.5
    poly = potentials.ginzburg_landau(m).poly
    assert {tuple(e): c for e, c in zip(poly.exps.tolist(), poly.coeffs.tolist())} == expected


def test_triple_well_values(triple_well):
    for a in triple_well.wells:
        assert abs(triple_well.value(a)) < 1e-12
    assert triple_well.value(np.zeros(2)) == pytest.approx(1.0, abs=1e-12)
    H = triple_well.hess(triple_well.wells[0])
    assert np.allclose(H, 18.0 * np.eye(2), atol=1e-9)


def test_triple_well_invariance(triple_well, dihedral3):
    rng = np.random.default_rng(0)
    u = rng.uniform(-2, 2, (100, 2))
    worst = max(
        float(np.max(np.abs(triple_well.value_field(u @ g.T) - triple_well.value_field(u))))
        for g in dihedral3.elements
    )
    assert worst < 1e-12


def test_tetra_well_paper_values(tetra_well, tetrahedral):
    a1 = potentials.TETRA_A1
    assert abs(tetra_well.value(a1)) < 1e-12
    assert tetra_well.value(np.zeros(3)) == pytest.approx(5.0 / 9.0, abs=1e-15)
    # the well set is the 4-point orbit of a1, all exact zeros
    orb = groups.orbit(tetrahedral, a1)
    assert orb.shape[0] == 4
    assert np.max(np.abs(tetra_well.value_field(orb))) < 1e-12
    lam = np.linalg.eigvalsh(tetra_well.hess(a1))[0]
    assert lam > 0
    assert lam == pytest.approx(2.0 * tetra_well.c**2, rel=1e-12)


def test_tetra_well_invariance(tetra_well, tetrahedral):
    rng = np.random.default_rng(1)
    u = rng.uniform(-2, 2, (100, 3))
    worst = max(
        float(np.max(np.abs(tetra_well.value_field(u @ g.T) - tetra_well.value_field(u))))
        for g in tetrahedral.elements
    )
    assert worst < 1e-10


def _fd_grad(spec, pt, h=1e-4):
    return np.array(
        [(spec.value(pt + h * e) - spec.value(pt - h * e)) / (2 * h) for e in np.eye(spec.m)]
    )


def _fd_hess_row(spec, pt, h=1e-4):
    return np.stack(
        [(spec.grad(pt + h * e) - spec.grad(pt - h * e)) / (2 * h) for e in np.eye(spec.m)]
    )


@pytest.mark.parametrize("name", ["double_well", "tetra_well", "ginzburg_landau_2"])
def test_gradient_consistency(name):
    spec = potentials.get_potential(name)
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(100, spec.m))
    pts *= (rng.uniform(0, 2, 100) / np.linalg.norm(pts, axis=1))[:, None]
    worst = max(float(np.max(np.abs(spec.grad(p) - _fd_grad(spec, p)))) for p in pts)
    assert worst < 1e-6


def test_gradient_consistency_triple_well(triple_well):
    # degree-6 polynomial: central-difference truncation (h^2/6) |W'''| peaks
    # near 1.6e-6 at the edge of the radius-2 ball, so the bound is 2e-6 here
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(100, 2))
    pts *= (rng.uniform(0, 2, 100) / np.linalg.norm(pts, axis=1))[:, None]
    worst = max(float(np.max(np.abs(triple_well.grad(p) - _fd_grad(triple_well, p)))) for p in pts)
    assert worst < 2e-6


@pytest.mark.parametrize("name", ["double_well", "triple_well", "tetra_well"])
def test_hessian_consistency(name):
    spec = potentials.get_potential(name)
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.normal(size=spec.m)
        p *= rng.uniform(0, 2) / np.linalg.norm(p)
        assert np.max(np.abs(spec.hess(p) - _fd_hess_row(spec, p))) < 2e-6


def test_nondegeneracy_constant_records_min_eigenvalue(triple_well, tetra_well):
    for spec in (triple_well, tetra_well):
        lam = min(np.linalg.eigvalsh(spec.hess(a))[0] for a in spec.wells)
        assert 2.0 * spec.c**2 == pytest.approx(lam, rel=1e-12)
        assert lam > 0


def test_value_positive_everywhere_sampled():
    rng = np.random.default_rng(3)
    for name in ("double_well", "triple_well", "tetra_well", "ginzburg_landau_2"):
        spec = potentials.get_potential(name)
        pts = rng.uniform(-3, 3, (500, spec.m))
        assert np.min(spec.value_field(pts)) >= -1e-12


def test_verify_hypotheses_tetra(tetra_well, tetrahedral):
    report = potentials.verify_hypotheses(tetra_well, tetrahedral, sample_count=100)
    assert report["invariance_residual"] <= 1e-10
    assert report["min_hessian_eigenvalue"] > 0
    assert report["radial_monotonicity_violation"] <= 0.0 + 1e-12
    assert report["wells_in_fundamental_region"] == 1


def test_verify_hypotheses_double_well_sign_flip(double_well):
    flip = groups.ReflectionGroup(
        name="sign_flip",
        dimension=1,
        generators=np.array([[[-1.0]]]),
        elements=np.array([[[-1.0]], [[1.0]]]),
        wall_normals=np.array([[1.0]]),
    )
    report = potentials.verify_hypotheses(double_well, flip)
    assert report["invariance_residual"] == 0.0


def test_verify_hypotheses_triple_well(triple_well, dihedral3):
    report = potentials.verify_hypotheses(triple_well, dihedral3)
    assert report["invariance_residual"] <= 1e-12
    assert report["wells_in_fundamental_region"] == 1
    assert report["min_hessian_eigenvalue"] == pytest.approx(18.0, abs=1e-9)


def test_verify_hypotheses_skips_degenerate(tetrahedral):
    gl = potentials.ginzburg_landau(3)
    report = potentials.verify_hypotheses(gl, tetrahedral)
    assert report["min_hessian_eigenvalue"] is None
    assert report["degenerate_zero_set"]
    assert report["invariance_residual"] <= 1e-10  # radially symmetric


def test_find_wells(tetra_well, double_well):
    wells, failures = potentials.find_wells(tetra_well, [[0.9, 0.1, 0.5]])
    assert not failures
    assert wells.shape == (1, 3)
    assert np.allclose(wells[0], potentials.TETRA_A1, atol=1e-9)

    wells, failures = potentials.find_wells(double_well, [[-0.9]])
    assert np.allclose(wells, [[-1.0]])

    # the origin is a local max of the double well: reported, not returned
    wells, failures = potentials.find_wells(double_well, [[0.0]])
    assert wells.shape[0] == 0
    assert failures and "positive definite" in failures[0]["reason"]


def test_find_wells_merges_duplicates(triple_well):
    seeds = [[0.9, 0.05], [1.05, -0.02], [-0.45, 0.9]]
    wells, failures = potentials.find_wells(triple_well, seeds)
    assert not failures
    assert wells.shape[0] == 2


def test_custom_potential_json(tmp_path):
    # W(u, v) = u^2 + v^2: single well at the origin
    data = {
        "name": "paraboloid",
        "monomials": [
            {"coeff": 1.0, "exponents": [2, 0]},
            {"coeff": 1.0, "exponents": [0, 2]},
        ],
        "wells": [[0.0, 0.0]],
    }
    path = tmp_path / "pot.json"
    path.write_text(__import__("json").dumps(data))
    spec = potentials.potential_from_json(str(path))
    assert spec.value([0.0, 0.0]) == 0.0
    assert spec.value([1.0, 1.0]) == pytest.approx(2.0)
    assert np.allclose(spec.grad([1.0, 0.0]), [2.0, 0.0])
    assert spec.nondegenerate


@pytest.mark.parametrize("exponent", [2.5, True, -1, None], ids=["fractional", "boolean", "negative", "null"])
def test_custom_potential_rejects_non_integer_exponents(exponent):
    # an int64 coercion read 2.5 as 2, true as 1 and -1 as a wrong power column
    data = {"monomials": [{"coeff": 1.0, "exponents": [2, exponent]}, {"coeff": -1.0, "exponents": [0, 0]}]}
    with pytest.raises(ValueError, match=r"monomial .* has exponent"):
        potentials.potential_from_json(data)
    # integer-valued exponents, 2.0 among them, are read as they are
    data["monomials"][0]["exponents"] = [2, 2.0]
    assert potentials.potential_from_json(data).value([2.0, 3.0]) == 35.0


@pytest.mark.parametrize(
    "monomial, wells, message",
    [
        ({"coeff": float("nan"), "exponents": [6]}, [[-1.0], [1.0]], r"monomial .* has coefficient nan"),
        ({"coeff": float("inf"), "exponents": [6]}, [[-1.0], [1.0]], r"monomial .* has coefficient inf"),
        ({"coeff": 0.0, "exponents": [6]}, [[float("nan")], [1.0]], r"well 0 \[nan\] must be finite"),
    ],
    ids=["nan-coefficient", "inf-coefficient", "nan-well"],
)
def test_custom_potential_rejects_non_finite_numbers(monomial, wells, message):
    # a nan coefficient failed the |c| > 1e-300 test of the canonical form and its term was dropped
    quartic = [{"coeff": 1.0, "exponents": [4]}, {"coeff": -2.0, "exponents": [2]}, {"coeff": 1.0, "exponents": [0]}]
    with pytest.raises(ValueError, match=message):
        potentials.potential_from_json({"monomials": quartic + [monomial], "wells": wells})


@pytest.mark.parametrize(
    "change, message",
    [
        ({"monomials": [{"coeff": True, "exponents": [4]}]}, r"monomial .* has coefficient True; coefficients are numbers"),
        ({"monomials": [{"coeff": "-2", "exponents": [4]}]}, r"monomial .* has coefficient '-2'; coefficients are numbers"),
        ({"monomials": [{"coeff": None, "exponents": [4]}]}, r"monomial .* has coefficient None; coefficients are numbers"),
        ({"name": ["quartic"]}, r"custom potential name \['quartic'\] is not a string"),
        ({"name": 7}, r"custom potential name 7 is not a string"),
    ],
    ids=["boolean-coefficient", "string-coefficient", "null-coefficient", "listed-name", "numeric-name"],
)
def test_custom_potential_rejects_coefficients_and_names_of_other_types(change, message):
    # a float coercion read true as 1.0 and "-2" as -2.0, and the name was echoed as given
    quartic = [{"coeff": 1.0, "exponents": [4]}, {"coeff": -2.0, "exponents": [2]}, {"coeff": 1.0, "exponents": [0]}]
    data = {"name": "quartic", "monomials": quartic, "wells": [[-1.0], [1.0]]}
    data.update(change)
    if "monomials" in change:
        data["monomials"] = change["monomials"] + quartic[1:]
    with pytest.raises(ValueError, match=message):
        potentials.potential_from_json(data)
    # integer coefficients are numbers, read as they are
    data = {"name": "quartic", "monomials": [dict(m, coeff=int(m["coeff"])) for m in quartic]}
    assert potentials.potential_from_json(data).value(2.0) == 9.0


def test_non_finite_numbers_are_rejected_on_construction():
    # the nan term used to be dropped: the polynomial below evaluated to u^2
    with pytest.raises(ValueError, match=r"monomial \[4\] has coefficient nan; coefficients are finite numbers"):
        potentials.Polynomial(1, [1.0, float("nan")], [[2], [4]])
    poly = potentials.Polynomial(1, [1.0, -2.0, 1.0], [[4], [2], [0]])
    with pytest.raises(ValueError, match=r"well 0 \[nan\] must be finite"):
        potentials.PotentialSpec("quartic", poly, [[float("nan")], [1.0]])


@pytest.mark.parametrize(
    "wells",
    [[[1, 0], [0, -1], [0, 0]], [[1.0], [-1.0]], [1.0, 0.0, 0.0], 1.0, [[[1.0, 0.0, 0.0]]]],
    ids=["three-2-vectors", "two-1-vectors", "flat", "scalar", "nested"],
)
def test_misshaped_wells_are_rejected(wells):
    # wells were reshaped to (-1, m): three 2-vectors on a 3-component
    # polynomial read as the two wells (1, 0, 0) and (-1, 0, 0), nondegenerate
    poly = potentials.Polynomial(3, [1.0, -2.0, 1.0, 1.0, 1.0], [[4, 0, 0], [2, 0, 0], [0, 0, 0], [0, 2, 0], [0, 0, 2]])
    with pytest.raises(ValueError, match=r"wells of shape .* must be an \(N, 3\) array"):
        potentials.PotentialSpec("misshaped", poly, wells)
    # an empty list and an (N, 3) array are wells
    assert potentials.PotentialSpec("bare", poly, []).wells.shape == (0, 3)
    assert potentials.PotentialSpec("quartic", poly, [[1, 0, 0], [-1, 0, 0]]).nondegenerate


@pytest.mark.parametrize("u", [[1.0, 2.0], [[1.0, 2.0]], np.zeros((3, 2))], ids=["point", "row", "rows"])
def test_points_of_another_length_are_rejected(double_well, u):
    # the flat reshape read [1.0, 2.0] as the two points 1 and 2 and returned W(1) = 0
    for method in (double_well.value, double_well.grad, double_well.hess):
        with pytest.raises(ValueError, match=r"^point length 2 does not match potential 'double_well' \(m = 1\)$"):
            method(u)
    assert double_well.value(1.0) == 0.0 and double_well.value([[1.0], [0.0]]).tolist() == [0.0, 0.25]


def test_potential_constants_are_derived_from_polynomial_and_wells():
    # W = (u1^2 - 1)^2 (2 + u1) + 5 (u2 + u1^2 - 1)^2, zero at (1, 0) and (-1, 0), where
    # W_uu = 8 (2 + u1) e1 e1^T + 10 (2 u1, 1)(2 u1, 1)^T: two different Hessians
    q1 = potentials.Polynomial(2, [1.0, -1.0], [[2, 0], [0, 0]])
    q = potentials.Polynomial(2, [1.0, 1.0, -1.0], [[0, 1], [2, 0], [0, 0]])
    g = potentials.Polynomial(2, [2.0, 1.0], [[0, 0], [1, 0]])
    poly = q1 * q1 * g + potentials.Polynomial(2, [5.0], [[0, 0]]) * q * q
    spec = potentials.PotentialSpec("custom", poly, [[1, 0], [-1, 0]])
    hessians = [np.array([[24.0 + 40.0, 20.0], [20.0, 10.0]]), np.array([[8.0 + 40.0, -20.0], [-20.0, 10.0]])]
    lam = min(np.linalg.eigvalsh(H)[0] for H in hessians)
    assert spec.c == pytest.approx(np.sqrt(lam / 2.0), rel=1e-12)
    assert spec.nondegenerate and spec.m == 2 and spec.radial_radius == 3.0
    assert spec.wells.dtype == np.float64 and spec.wells.shape == (2, 2)
    assert np.allclose(spec.value_field(spec.wells), 0.0)
    # without wells the potential is degenerate, with c = 0
    bare = potentials.PotentialSpec("bare", poly, [])
    assert (bare.c, bare.nondegenerate, bare.radial_radius, bare.wells.shape) == (0.0, False, 2.0, (0, 2))


def test_building_a_potential_forms_the_hessian_terms_once(monkeypatch):
    calls = []
    real = potentials._hess_terms
    monkeypatch.setattr(potentials, "_hess_terms", lambda grads: calls.append(len(grads)) or real(grads))
    for name in sorted(potentials._CATALOG):
        calls.clear()
        spec = potentials.get_potential(name)
        assert calls == [spec.m], name


def test_polynomial_algebra():
    p = potentials.Polynomial(1, [1.0, 1.0], [[1], [0]])  # u + 1
    q = p * p  # u^2 + 2u + 1
    pts = np.array([[0.0], [1.0], [-2.0]])
    assert np.allclose(q(pts), (pts[:, 0] + 1) ** 2)
    dq = q.derivative(0)
    assert np.allclose(dq(pts), 2 * (pts[:, 0] + 1))
