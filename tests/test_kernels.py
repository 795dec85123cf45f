"""Grid and potential kernels checked against closed-form values and the
polynomial reference evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import RegularGridInterpolator

from multiwell import kernels, potentials


rng = np.random.default_rng(0)


def box_nodes(dim, P):
    """(P,)*dim grid on [-1, 1]^dim: node coordinates of shape (P,)*dim + (dim,)."""
    ax = np.linspace(-1, 1, P)
    return np.stack(np.meshgrid(*([ax] * dim), indexing="ij"), axis=-1), ax[1] - ax[0]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_laplacian_of_quadratic(dim):
    # the stencil is exact on quadratics: Delta_h |x|^2 = 2 dim at interior nodes
    x, h = box_nodes(dim, 11)
    r2 = np.sum(x * x, axis=-1)
    vals = np.stack([r2, 3.0 - 0.5 * r2], axis=-1)
    lap = kernels.laplacian(vals, h)
    inner = (slice(1, -1),) * dim
    assert np.allclose(lap[inner][..., 0], 2.0 * dim, rtol=0, atol=1e-12)
    assert np.allclose(lap[inner][..., 1], -dim, rtol=0, atol=1e-12)
    edge = np.ones(lap.shape[:-1], dtype=bool)
    edge[inner] = False
    assert np.all(lap[edge] == 0.0)


def test_interp_lanes_agree_and_hit_nodes():
    # the grid kernel agrees with scipy's independent interpolator on random
    # fields, and reproduces the node values, including the corners of the box
    for dim, P in ((2, 21), (3, 9)):
        x, h = box_nodes(dim, P)
        vals = np.ascontiguousarray(rng.normal(size=(P,) * dim + (dim,)))
        q = rng.uniform(-1, 1, size=(300, dim))
        axes = [np.linspace(-1, 1, P)] * dim
        ref = RegularGridInterpolator(axes, vals, method="linear")(q)
        assert np.allclose(kernels.interp(vals, q, -1.0, h), ref, atol=1e-13)
        m = P - 1
        idx = np.array([[0] * dim, [m // 2] * dim, [m] * dim, [0] + [m] * (dim - 1), [3, m, 1][:dim]])
        out = kernels.interp(vals, x[tuple(idx.T)], -1.0, h)
        assert np.allclose(out, vals[tuple(idx.T)], rtol=0, atol=1e-12)


def test_interp_linear_exactness():
    # multilinear interpolation reproduces affine fields exactly, hits the
    # nodes bit for bit, and clamps queries outside the box to its faces
    for dim in (2, 3):
        x, h = box_nodes(dim, 9)
        a = np.array([2.0, -3.0, 0.75])[:dim]
        affine = lambda p: np.stack([p @ a + 0.5, p[..., 0]], axis=-1)
        vals = np.ascontiguousarray(affine(x))
        q = rng.uniform(-1, 1, size=(200, dim))
        assert np.allclose(kernels.interp(vals, q, -1.0, h), affine(q), atol=1e-12)
        # exact at nodes, including the corners of the box
        idx = np.array([[0] * dim, [4] * dim, [8] * dim, [0] + [8] * (dim - 1), [3, 8, 1][:dim]])
        out = kernels.interp(vals, x[tuple(idx.T)], -1.0, h)
        assert np.array_equal(out, vals[tuple(idx.T)])
        far = rng.uniform(-3, 3, size=(200, dim))
        out = kernels.interp(vals, far, -1.0, h)
        assert np.allclose(out, affine(np.clip(far, -1.0, 1.0)), atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_link_energy_quadrature_value(dim):
    # affine u: gradient energy density |grad u|^2 / 2, summed exactly over [-1,1]^dim
    x, h = box_nodes(dim, 21)
    a = np.array([1.0, -2.0, 0.5])[:dim]
    vals = np.ascontiguousarray(np.stack([x @ a, x[..., 0]], axis=-1))
    expected = 0.5 * (a @ a + 1.0) * 2.0**dim
    assert np.isclose(kernels.link_energy(vals, h), expected, rtol=1e-12)


def test_potential_kernels_agree():
    # the prodwell/tetra fused kernels agree with the generic polynomial kernel
    for name in ("double_well", "triple_well", "tetra_well"):
        spec = potentials.get_potential(name)
        assert spec.kind in ("prodwell", "tetra")
        pts = np.ascontiguousarray(np.vstack([rng.normal(size=(200, spec.m)), spec.wells]))
        ref = kernels.poly_value(pts, spec.poly.coeffs, spec.poly.exps)
        assert np.max(np.abs(spec.value_field(pts) - ref)) <= 1e-12 * np.max(np.abs(ref))
        derivs = [spec.poly.derivative(j) for j in range(spec.m)]
        gref = np.stack([kernels.poly_value(pts, d.coeffs, d.exps) for d in derivs], axis=1)
        assert np.max(np.abs(spec.grad_field(pts) - gref)) <= 1e-12 * np.max(np.abs(gref))


def test_poly_kernels_agree():
    # the generic polynomial kernels agree with direct evaluation
    pts = np.ascontiguousarray(rng.normal(size=(100, 2)))
    x, y = pts[:, 0], pts[:, 1]
    coeffs = np.array([1.0, -0.5, 0.25])
    exps = np.array([[4, 0], [2, 2], [0, 0]], dtype=np.int64)
    direct = coeffs[0] * x**4 + coeffs[1] * x**2 * y**2 + coeffs[2]
    assert np.allclose(kernels.poly_value(pts, coeffs, exps), direct)
    # gradient of x^4 - x^2 y^2 / 2: one monomial list per component
    grads = [
        (np.array([4.0, -1.0]), np.array([[3, 0], [1, 2]], dtype=np.int64)),
        (np.array([-1.0]), np.array([[2, 1]], dtype=np.int64)),
    ]
    value, grad = kernels.poly_value_grad(pts, coeffs, exps, grads)
    assert np.allclose(value, direct)
    assert np.allclose(grad, np.stack([4 * x**3 - x * y**2, -(x**2) * y], axis=1))


# W = (u1^2 - 1)^2 + u2^2 (1 + u1^2): a custom potential on the generic
# polynomial kernel, with exactly representable wells
CUSTOM = {
    "name": "custom_quartic",
    "monomials": [
        {"coeff": 1.0, "exponents": [4, 0]},
        {"coeff": -2.0, "exponents": [2, 0]},
        {"coeff": 1.0, "exponents": [0, 0]},
        {"coeff": 1.0, "exponents": [0, 2]},
        {"coeff": 1.0, "exponents": [2, 2]},
    ],
    "wells": [[1.0, 0.0], [-1.0, 0.0]],
}
SPECS = {name: potentials.get_potential(name) for name in sorted(potentials._CATALOG)}
SPECS["custom"] = potentials.potential_from_json(CUSTOM)


def _terms(poly, pts):
    """The polynomial at pts and the largest sum of its absolute monomial
    terms there: the relative error is taken against that, since a product
    form cancels differently from the expansion where W or W_u is near 0."""
    scale = kernels.poly_value(np.abs(pts), np.abs(poly.coeffs), poly.exps)
    return kernels.poly_value(pts, poly.coeffs, poly.exps), np.max(scale)


@settings(max_examples=200, deadline=None, database=None)
@given(name=st.sampled_from(sorted(SPECS)), data=st.data())
def test_fused_kernels_match_polynomial_and_central_difference(name, data):
    spec = SPECS[name]
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    drawn = data.draw(st.lists(st.lists(coord, min_size=spec.m, max_size=spec.m), min_size=1, max_size=8))
    pts = np.vstack([np.array(drawn), spec.wells])
    value, grad = spec.value_and_grad_field(pts)
    ref, scale = _terms(spec.poly, pts)
    assert np.max(np.abs(value - ref)) <= 1e-12 * scale
    # the value-only branch computes the value the same way
    assert np.array_equal(spec.value_field(pts), value)
    for j in range(spec.m):
        gref, gscale = _terms(spec.poly.derivative(j), pts)
        assert np.max(np.abs(grad[:, j] - gref)) <= 1e-12 * gscale
    # the gradient is the derivative of the value the same kernel returns
    delta = 1e-5
    for j in range(spec.m):
        e = np.zeros(spec.m)
        e[j] = delta
        fd = (spec.value_and_grad_field(pts + e)[0] - spec.value_and_grad_field(pts - e)[0]) / (2 * delta)
        assert np.all(np.abs(grad[:, j] - fd) <= 1e-6 * (1.0 + np.abs(value) + np.abs(grad[:, j])))


@settings(max_examples=200, deadline=None, database=None)
@given(name=st.sampled_from(sorted(SPECS)), data=st.data())
def test_hessian_kernels_match_polynomial_and_central_difference(name, data):
    # the closed-form prodwell/tetra Hessians (and the poly route) against
    # the second-derivative polynomials and a central difference of W_u
    spec = SPECS[name]
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    drawn = data.draw(st.lists(st.lists(coord, min_size=spec.m, max_size=spec.m), min_size=1, max_size=8))
    pts = np.vstack([np.array(drawn), spec.wells])
    H = spec.hess_field(pts)
    for i in range(spec.m):
        for j in range(spec.m):
            ref, scale = _terms(spec._hess_polys[i][j], pts)
            assert np.max(np.abs(H[:, i, j] - ref)) <= 1e-12 * scale
    delta = 1e-5
    for j in range(spec.m):
        e = np.zeros(spec.m)
        e[j] = delta
        fd = (spec.grad_field(pts + e) - spec.grad_field(pts - e)) / (2 * delta)
        assert np.all(np.abs(H[:, :, j] - fd) <= 1e-6 * (1.0 + np.abs(H[:, :, j])))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_fused_gradient_vanishes_at_declared_wells(name):
    spec = SPECS[name]
    value, grad = spec.value_and_grad_field(spec.wells)
    if name == "tetra_well":
        # irrational wells: the stored doubles are off the zero set by an ulp,
        # where the exact gradient is itself of order 1e-16
        assert np.max(np.abs(grad)) <= 1e-15
    else:
        assert np.all(grad == 0.0) and np.all(value == 0.0)
