"""Grid and potential kernels checked against closed-form values and the
polynomial reference evaluation."""

import numpy as np
import pytest
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
    # the prodwell/tetra fast paths agree with the generic polynomial kernels
    for name in ("double_well", "triple_well", "tetra_well"):
        spec = potentials.get_potential(name)
        assert spec.kind in ("prodwell", "tetra")
        pts = np.ascontiguousarray(np.vstack([rng.normal(size=(200, spec.m)), spec.wells]))
        ref = kernels.poly_value(pts, spec.poly.coeffs, spec.poly.exps)
        assert np.max(np.abs(spec.value_field(pts) - ref)) <= 1e-12 * np.max(np.abs(ref))
        gref = kernels.poly_grad(pts, spec._gcoeffs, spec._gexps)
        assert np.max(np.abs(spec.grad_field(pts) - gref)) <= 1e-12 * np.max(np.abs(gref))


def test_poly_kernels_agree():
    # the generic polynomial kernels agree with direct evaluation
    pts = np.ascontiguousarray(rng.normal(size=(100, 2)))
    x, y = pts[:, 0], pts[:, 1]
    coeffs = np.array([1.0, -0.5, 0.25])
    exps = np.array([[4, 0], [2, 2], [0, 0]], dtype=np.int64)
    direct = coeffs[0] * x**4 + coeffs[1] * x**2 * y**2 + coeffs[2]
    assert np.allclose(kernels.poly_value(pts, coeffs, exps), direct)
    # gradient of x^4 - x^2 y^2 / 2, padded with a zero monomial in component 0
    gcoeffs = np.array([[4.0, -1.0], [0.0, -1.0]])
    gexps = np.zeros((2, 2, 2), dtype=np.int64)
    gexps[0, 0] = [3, 0]
    gexps[0, 1] = [1, 2]
    gexps[1, 1] = [2, 1]
    direct = np.stack([4 * x**3 - x * y**2, -(x**2) * y], axis=1)
    assert np.allclose(kernels.poly_grad(pts, gcoeffs, gexps), direct)
