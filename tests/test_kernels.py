"""Grid and potential kernels checked against closed-form values and the
polynomial reference evaluation."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.fft
from scipy.interpolate import RegularGridInterpolator

from multiwell import fields, kernels, potentials


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
    vals = np.stack([r2, 3.0 - 0.5 * r2])  # component-major (m, *grid)
    lap = kernels.laplacian(vals, h)
    inner = (slice(1, -1),) * dim
    assert np.allclose(lap[0][inner], 2.0 * dim, rtol=0, atol=1e-12)
    assert np.allclose(lap[1][inner], -dim, rtol=0, atol=1e-12)
    edge = np.ones(lap.shape[1:], dtype=bool)
    edge[inner] = False
    assert np.all(lap[:, edge] == 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_link_laplacian_is_the_stencil_in_difference_form(dim):
    # the stencil that link_energy returns with the energy: the same stencil
    # up to rounding, exact on quadratics, zero on the boundary layer
    x, h = box_nodes(dim, 11)
    r2 = np.sum(x * x, axis=-1)
    lap = kernels.link_energy(np.stack([r2, 3.0 - 0.5 * r2]), h)[1]
    inner = (slice(1, -1),) * dim
    assert np.allclose(np.moveaxis(lap, 0, -1)[inner], [2.0 * dim, -dim], rtol=0, atol=1e-12)
    vals = rng.normal(size=(3,) + (9,) * dim)
    summed = kernels.laplacian(vals, 0.1)
    diffs = kernels.link_energy(vals, 0.1)[1]
    assert np.max(np.abs(diffs - summed)) <= 1e-12 * np.max(np.abs(summed))
    edge = np.ones(vals.shape[1:], dtype=bool)
    edge[inner] = False
    assert np.all(diffs[:, edge] == 0.0)


# one interior node, then both sides of the switch from the matrix to the FFT
SINE_POINTS = [3, 34, kernels.SINE_MATRIX_MAX + 2, kernels.SINE_MATRIX_MAX + 3, 602]


@pytest.mark.parametrize("points", SINE_POINTS)
def test_sine_transform_matches_scipy_dst(points):
    # scipy's orthonormal DST-I is an independent reference for both paths,
    # along the first, a middle and the last axis; the transform is its own
    # inverse, the matrix path writes to the spare array and the FFT path
    # over its input
    n = points - 2
    for shape, axis in (((n, 2), 0), ((2, n, 3), 1), ((2, n), 1)):
        nodes = rng.normal(size=shape)
        ref = scipy.fft.dst(nodes, type=1, norm="ortho", axis=axis)
        work, spare = nodes.copy(), np.empty(shape)
        modes = kernels._sine_axis(work, axis, spare)
        assert modes is (work if n > kernels.SINE_MATRIX_MAX else spare)
        assert np.max(np.abs(modes - ref)) <= 1e-13 * np.max(np.abs(ref))
        back = kernels._sine_axis(modes.copy(), axis, np.empty(shape))
        assert np.max(np.abs(back - nodes)) <= 1e-13 * np.max(np.abs(nodes))


# the FFT path, the mixed paths and the matrix path in 1D, 2D and 3D, with
# the shapes of the benchmark grids (2 x 81^2, 1 x 101^2, 3 x 33^3), each
# component-major (m, *grid)
SINE_SHAPES = [(3, 602), (2, 263, 9), (1, 9, 263), (3, 7, 6, 5), (2, 81, 81), (1, 101, 101), (3, 33, 33, 33), (2, 41)]


@pytest.mark.parametrize("shape", SINE_SHAPES)
def test_sine_solve_matches_scipy_dstn(shape):
    # transform, divide, transform back, with the axes on either side of the switch
    vals = rng.normal(size=shape)
    eig = rng.uniform(1.0, 2.0, size=tuple(P - 2 for P in shape[1:]))
    out = kernels.sine_solve(vals, eig)
    inner = (slice(None),) + (slice(1, -1),) * (len(shape) - 1)
    axes = tuple(range(1, len(shape)))
    ref = scipy.fft.idstn(scipy.fft.dstn(vals[inner], type=1, axes=axes) / eig, type=1, axes=axes)
    assert out.shape == shape and out.flags.c_contiguous
    assert np.max(np.abs(out[inner] - ref)) <= 1e-13 * np.max(np.abs(ref))
    edge = np.ones(shape[1:], dtype=bool)
    edge[inner[1:]] = False
    assert np.all(out[:, edge] == 0.0)


@pytest.mark.parametrize("shape", [(2, 9, 9), (2, 602), (2, 263, 9), (1, 9, 263), (3, 7, 6, 5)])
def test_sine_solve_reads_interior_nodes_only(shape):
    # NaN or inf anywhere on the boundary layer leaves the result bit for bit
    # what it is with zeros there, without a floating-point warning
    vals = rng.normal(size=shape)
    eig = rng.uniform(1.0, 2.0, size=tuple(P - 2 for P in shape[1:]))
    edge = np.ones(shape[1:], dtype=bool)
    edge[(slice(1, -1),) * (len(shape) - 1)] = False
    vals[:, edge] = 0.0
    ref = kernels.sine_solve(vals, eig)
    for bad in (np.nan, np.inf, -np.inf):
        dirty = vals.copy()
        dirty[:, edge] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(kernels.sine_solve(dirty, eig), ref)


def test_interp_lanes_agree_and_hit_nodes():
    # the grid kernel agrees with scipy's independent interpolator on random
    # fields, and reproduces the node values, including the corners of the box
    for dim, P in ((2, 21), (3, 9)):
        x, h = box_nodes(dim, P)
        vals = np.ascontiguousarray(rng.normal(size=(P,) * dim + (dim,)))
        q = rng.uniform(-1, 1, size=(300, dim))
        axes = [np.linspace(-1, 1, P)] * dim
        ref = RegularGridInterpolator(axes, vals, method="linear")(q)
        assert np.allclose(kernels.interp(fields.to_columns(vals), q, -1.0, h), ref, atol=1e-13)
        m = P - 1
        idx = np.array([[0] * dim, [m // 2] * dim, [m] * dim, [0] + [m] * (dim - 1), [3, m, 1][:dim]])
        out = kernels.interp(fields.to_columns(vals), x[tuple(idx.T)], -1.0, h)
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
        cols = fields.to_columns(vals)
        assert np.allclose(kernels.interp(cols, q, -1.0, h), affine(q), atol=1e-12)
        # exact at nodes, including the corners of the box
        idx = np.array([[0] * dim, [4] * dim, [8] * dim, [0] + [8] * (dim - 1), [3, 8, 1][:dim]])
        out = kernels.interp(cols, x[tuple(idx.T)], -1.0, h)
        assert np.array_equal(out, vals[tuple(idx.T)])
        far = rng.uniform(-3, 3, size=(200, dim))
        out = kernels.interp(cols, far, -1.0, h)
        assert np.allclose(out, affine(np.clip(far, -1.0, 1.0)), atol=1e-12)


def _interp_rows(values, pts, lo, h):
    """Reference: the row gather, each corner's (N, m) rows taken at once,
    weighted by the product of its axis weights and summed in corner order."""
    shape = values.shape[:-1]
    flat = values.reshape(-1, values.shape[-1])
    strides = [int(np.prod(shape[k + 1 :])) for k in range(len(shape))]
    base, weights = 0, []
    for k, P in enumerate(shape):
        t = np.clip((pts[:, k] - lo) / h, 0.0, P - 1)
        i = np.minimum(t.astype(np.int64), P - 2)
        base = base + i * strides[k]
        f = (t - i)[:, None]
        weights.append((1 - f, f))
    out = np.zeros((pts.shape[0], flat.shape[1]))
    for corner in itertools.product((0, 1), repeat=len(shape)):
        rows = np.take(flat, base + sum(c * s for c, s in zip(corner, strides)), axis=0)
        w = weights[0][corner[0]]
        for k in range(1, len(shape)):
            w = w * weights[k][corner[k]]
        out += rows * w
    return out


@pytest.mark.parametrize("dim, P", [(1, 41), (2, 17), (3, 9)])
@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_interp_is_bit_equal_to_the_row_gather(dim, P, m):
    # the column gathers weight and sum the corners in the row gather's order,
    # so every bit agrees, at nodes, inside the box and at clamped points
    # outside it; the result is (N, m), the transposed view of C-contiguous
    # (m, N) columns
    x, h = box_nodes(dim, P)
    vals = rng.normal(size=(P,) * dim + (m,))
    q = np.concatenate([rng.uniform(-1, 1, size=(300, dim)), rng.uniform(-3, 3, size=(100, dim)),
                        x.reshape(-1, dim)[::7]])
    cols = fields.to_columns(vals)
    out = kernels.interp(cols, q, -1.0, h)
    assert out.shape == (q.shape[0], m) and out.T.flags.c_contiguous
    assert np.array_equal(out, _interp_rows(vals, q, -1.0, h))
    # a NaN point has NaN weights: its row is NaN and the others are kept
    q[1, 0] = np.nan
    with np.errstate(invalid="ignore"):
        out_nan = kernels.interp(cols, q, -1.0, h)
    assert np.isnan(out_nan[1]).all() and np.array_equal(np.delete(out_nan, 1, axis=0), np.delete(out, 1, axis=0))


def test_interp_reads_its_input_in_place():
    # the corners are gathered from the rows of the (m, *grid) input, which is
    # not copied: interpolating 3 x 65^3 values (6.6 MB) at 10 points
    # allocates a small fraction of that, and the result is a view
    cols = rng.normal(size=(3, 65, 65, 65))
    q = rng.uniform(-1, 1, size=(10, 3))
    tracemalloc.start()
    try:
        out = kernels.interp(cols, q, -1.0, 2.0 / 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cols.nbytes // 100
    assert out.base is not None and np.array_equal(out, _interp_rows(np.moveaxis(cols, 0, -1), q, -1.0, 2.0 / 64))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_link_energy_quadrature_value(dim):
    # affine u: gradient energy density |grad u|^2 / 2, summed exactly over [-1,1]^dim
    x, h = box_nodes(dim, 21)
    a = np.array([1.0, -2.0, 0.5])[:dim]
    vals = np.stack([x @ a, x[..., 0]])  # component-major (m, *grid)
    expected = 0.5 * (a @ a + 1.0) * 2.0**dim
    assert np.isclose(kernels.link_energy(vals, h)[0], expected, rtol=1e-12)


@pytest.mark.parametrize("shape", [(), (5,), (5, 7), (3, 5, 7)], ids=["0d", "1d", "2d", "3d"])
def test_trapezoid_weights(shape):
    # the product of the 1D rules, summing to the cell count exactly
    w = kernels.trapezoid_weights(shape)
    expected = np.ones(())
    for P in shape:
        w1 = np.r_[0.5, np.ones(P - 2), 0.5]
        expected = np.multiply.outer(expected, w1)
    assert w.shape == shape
    assert np.array_equal(w, expected)
    assert w.sum() == np.prod([P - 1 for P in shape])


def _product_value_grad(pts, wells, scale):
    """The closed form of a product well, W = s prod_i f_i and
    W_u = 2 s sum_i d_i prod_{k != i} f_k, with d_i = u - a_i and f_i = |d_i|^2."""
    d = pts[:, None, :] - wells[None, :, :]
    f = np.sum(d * d, axis=2)
    excluded = np.stack([np.prod(np.delete(f, i, axis=1), axis=1) for i in range(len(wells))], axis=1)
    return scale * np.prod(f, axis=1), 2.0 * scale * np.einsum("nij,ni->nj", d, excluded)


# the catalog potentials that expand s * prod_i |u - a_i|^2 over their wells, with their s
PRODUCT_FACTORS = {"double_well": 0.25, "triple_well": 1.0}


def test_potential_kernels_agree():
    # the catalog's expanded polynomial agrees with the product of squared
    # well distances it expands, and its gradient with the product's
    for name, factor in PRODUCT_FACTORS.items():
        spec = potentials.get_potential(name)
        pts = np.ascontiguousarray(np.vstack([rng.normal(size=(200, spec.m)), spec.wells]))
        ref, gref = _product_value_grad(pts, spec.wells, factor)
        W, W_u = spec.value_and_grad_columns(pts.T)
        assert np.max(np.abs(W - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(W_u.T - gref)) <= 1e-12 * np.max(np.abs(gref))


def test_triple_well_is_the_exact_expansion():
    # |u^3 - 1|^2 = (u1^2 + u2^2)^3 - 2 u1^3 + 6 u1 u2^2 + 1: seven monomials
    # with integer coefficients, and 11 terms over the three upper-triangle
    # Hessian entries (4, 3 and 4)
    spec = potentials.get_potential("triple_well")
    terms = dict(zip(map(tuple, spec.poly.exps.tolist()), spec.poly.coeffs.tolist()))
    assert terms == {(6, 0): 1.0, (4, 2): 3.0, (2, 4): 3.0, (0, 6): 1.0, (3, 0): -2.0, (1, 2): 6.0, (0, 0): 1.0}
    assert [len(t) for t in spec._hess_terms] == [4, 3, 4]


@pytest.mark.parametrize("name", sorted(potentials._CATALOG))
def test_hessian_rows_are_the_hess_field_entries(name):
    # the m(m+1)/2 upper-triangle rows on component columns are the entries
    # (i, j) and (j, i) of hess_field bit for bit, over two blocks of points
    spec = potentials.get_potential(name)
    pts = rng.normal(size=(kernels.POLY_BLOCK + 37, spec.m))
    rows = spec.hess_columns(np.ascontiguousarray(pts.T))
    H = spec.hess_field(pts)
    assert rows.shape == (spec.m * (spec.m + 1) // 2, len(pts))
    for i, j in itertools.product(range(spec.m), repeat=2):
        assert np.array_equal(rows[spec.hess_index[i, j]], H[:, i, j])
        assert spec.hess_index[i, j] == spec.hess_index[j, i]


def test_tetra_well_matches_closed_form():
    # the tetrahedral quartic on the generic kernel against its closed form
    # W = |u|^4 - (4/sqrt 3)(u1^2 - u2^2) u3 - (2/3)|u|^2 + 5/9
    spec = potentials.get_potential("tetra_well")
    pts = np.ascontiguousarray(np.vstack([rng.normal(size=(200, 3)), spec.wells]))
    u1, u2, u3 = pts.T
    r2 = u1**2 + u2**2 + u3**2
    c = 4.0 / np.sqrt(3.0)
    value = r2**2 - c * (u1**2 - u2**2) * u3 - (2.0 / 3.0) * r2 + 5.0 / 9.0
    grad = np.stack(
        [
            4 * r2 * u1 - 2 * c * u1 * u3 - (4.0 / 3.0) * u1,
            4 * r2 * u2 + 2 * c * u2 * u3 - (4.0 / 3.0) * u2,
            4 * r2 * u3 - c * (u1**2 - u2**2) - (4.0 / 3.0) * u3,
        ],
        axis=1,
    )
    hess = 8.0 * pts[:, :, None] * pts[:, None, :] + (4 * r2 - 4.0 / 3.0)[:, None, None] * np.eye(3)
    hess[:, 0, 0] -= 2 * c * u3
    hess[:, 1, 1] += 2 * c * u3
    hess[:, 0, 2] -= 2 * c * u1
    hess[:, 2, 0] -= 2 * c * u1
    hess[:, 1, 2] += 2 * c * u2
    hess[:, 2, 1] += 2 * c * u2
    W, W_u = spec.value_and_grad_columns(pts.T)
    for got, ref in ((W, value), (W_u.T, grad), (spec.hess_field(pts), hess)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the wells are zeros and critical points, up to the rounding of their coordinates
    assert np.max(np.abs(W[-4:])) <= 1e-15 and np.max(np.abs(W_u[:, -4:])) <= 1e-15


def test_poly_kernels_agree():
    # the generic polynomial kernel agrees with direct evaluation: several
    # polynomials (a value and its gradient, one monomial list per component)
    # from one power table, over two blocks of points, the second partial
    n = kernels.POLY_BLOCK + 37
    pts = np.ascontiguousarray(rng.normal(size=(n, 3)))
    x, y, z = pts.T
    cases = [
        # x^4 - x^2 y^2 / 2 + 1/4
        (
            [([1.0, -0.5, 0.25], [[4, 0], [2, 2], [0, 0]]), ([4.0, -1.0], [[3, 0], [1, 2]]), ([-1.0], [[2, 1]])],
            [x**4 - 0.5 * x**2 * y**2 + 0.25, 4 * x**3 - x * y**2, -(x**2) * y],
            2,
        ),
        # 2 x y^2 z^3 - x^3 + z / 2 - 3/2
        (
            [
                ([2.0, -1.0, 0.5, -1.5], [[1, 2, 3], [3, 0, 0], [0, 0, 1], [0, 0, 0]]),
                ([2.0, -3.0], [[0, 2, 3], [2, 0, 0]]),
                ([4.0], [[1, 1, 3]]),
                ([6.0, 0.5], [[1, 2, 2], [0, 0, 0]]),
            ],
            [2 * x * y**2 * z**3 - x**3 + 0.5 * z - 1.5, 2 * y**2 * z**3 - 3 * x**2, 4 * x * y * z**3, 6 * x * y**2 * z**2 + 0.5],
            3,
        ),
        # the constant 3 (degree 0) and its zero gradient
        ([([3.0], [[0, 0, 0]]), ([0.0], [[0, 0, 0]])], [np.full(n, 3.0), np.zeros(n)], 3),
    ]
    for polys, direct, m in cases:
        emax = max(max(map(sum, exps)) for _, exps in polys)
        rows = kernels.poly_columns(pts[:, :m].T, [kernels.poly_terms(c, e) for c, e in polys], emax)
        assert rows.shape == (len(polys), n)
        assert np.allclose(rows, np.stack(direct))


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
    terms there: the relative error is taken against that, since the kernel
    sums the terms in its own order, which cancels differently where W or
    W_u is near 0."""
    scale = potentials.Polynomial(poly.nvars, np.abs(poly.coeffs), poly.exps)(np.abs(pts))
    return poly(pts), np.max(scale)


@settings(max_examples=200, deadline=None, database=None)
@given(name=st.sampled_from(sorted(SPECS)), data=st.data())
def test_fused_kernels_match_polynomial_and_central_difference(name, data):
    spec = SPECS[name]
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    drawn = data.draw(st.lists(st.lists(coord, min_size=spec.m, max_size=spec.m), min_size=1, max_size=8))
    pts = np.vstack([np.array(drawn), spec.wells])
    value, grad = spec.value_and_grad_columns(pts.T)
    ref, scale = _terms(spec.poly, pts)
    assert np.max(np.abs(value - ref)) <= 1e-12 * scale
    # the value-only branch computes the value the same way
    assert np.array_equal(spec.value_field(pts), value)
    for j in range(spec.m):
        gref, gscale = _terms(spec.poly.derivative(j), pts)
        assert np.max(np.abs(grad[j] - gref)) <= 1e-12 * gscale
    # the gradient is the derivative of the value the same kernel returns
    delta = 1e-5
    for j in range(spec.m):
        e = np.zeros(spec.m)
        e[j] = delta
        fd = (spec.value_and_grad_columns((pts + e).T)[0] - spec.value_and_grad_columns((pts - e).T)[0]) / (2 * delta)
        assert np.all(np.abs(grad[j] - fd) <= 1e-6 * (1.0 + np.abs(value) + np.abs(grad[j])))


@settings(max_examples=200, deadline=None, database=None)
@given(name=st.sampled_from(sorted(SPECS)), data=st.data())
def test_hessian_kernels_match_polynomial_and_central_difference(name, data):
    # the generic Hessian against the second-derivative polynomials and a
    # central difference of W_u
    spec = SPECS[name]
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    drawn = data.draw(st.lists(st.lists(coord, min_size=spec.m, max_size=spec.m), min_size=1, max_size=8))
    pts = np.vstack([np.array(drawn), spec.wells])
    H = spec.hess_field(pts)
    for i in range(spec.m):
        for j in range(spec.m):
            ref, scale = _terms(spec.poly.derivative(i).derivative(j), pts)
            assert np.max(np.abs(H[:, i, j] - ref)) <= 1e-12 * scale
    delta = 1e-5
    for j in range(spec.m):
        e = np.zeros(spec.m)
        e[j] = delta
        fd = (spec.grad_field(pts + e) - spec.grad_field(pts - e)) / (2 * delta)
        assert np.all(np.abs(H[:, :, j] - fd) <= 1e-6 * (1.0 + np.abs(H[:, :, j])))


def _product_hessian(pts, wells, scale):
    """The closed form of a product well's Hessian,
    2 s [(sum_i P_i) I + 2 sum_{i < j} P_ij (d_i d_j^T + d_j d_i^T)] with
    d_i = u - a_i, f_i = |d_i|^2, P_i = prod_{k != i} f_k and
    P_ij = prod_{k != i, j} f_k, and per point the largest entry of the
    summed magnitudes of its terms."""
    d = pts[:, None, :] - wells[None, :, :]
    f = np.sum(d * d, axis=2)
    excluded = lambda *skip: np.prod(np.delete(f, skip, axis=1), axis=1)[:, None, None]
    H = sum(excluded(i) for i in range(len(wells))) * np.eye(pts.shape[1])
    mags = H.copy()
    for i, j in itertools.combinations(range(len(wells)), 2):
        outer = d[:, i, :, None] * d[:, j, None, :]
        term = 2.0 * excluded(i, j) * (outer + outer.transpose(0, 2, 1))
        H += term
        mags += np.abs(term)
    return 2.0 * scale * H, 2.0 * abs(scale) * mags.max(axis=(1, 2))


@pytest.mark.parametrize("name", sorted(PRODUCT_FACTORS))
def test_product_potential_hessian_matches_closed_form(name):
    # the generic kernel's W_uu of a product potential against the product's
    # own closed form, at seeded random points and at the wells
    spec = SPECS[name]
    pts = np.vstack([np.random.default_rng(5).uniform(-2.0, 2.0, size=(1000, spec.m)), spec.wells])
    ref, scale = _product_hessian(pts, spec.wells, PRODUCT_FACTORS[name])
    assert np.all(np.max(np.abs(spec.hess_field(pts) - ref), axis=(1, 2)) <= 1e-13 * scale)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_fused_gradient_vanishes_at_declared_wells(name):
    spec = SPECS[name]
    value, grad = spec.value_and_grad_columns(spec.wells.T)
    if name == "tetra_well":
        # irrational wells: the stored doubles are off the zero set by an ulp,
        # where the exact gradient is itself of order 1e-16
        assert np.max(np.abs(grad)) <= 1e-15
    elif name == "triple_well":
        # the wells (-1/2, +-sqrt(3)/2) are stored about |a| eps off the zero,
        # so W_u there is bounded by its conditioning, ||W_uu(a)|| |a| eps =
        # 18 * 2.2e-16; W is quadratic in that offset, and what is left is the
        # rounding of its terms, eps times the sum of their magnitudes
        eps = np.finfo(float).eps
        assert np.max(np.abs(grad)) <= 18.0 * eps
        assert np.max(np.abs(value)) <= eps * _terms(spec.poly, spec.wells)[1]
    else:
        # wells with exact coordinates are exact zeros and critical points
        assert np.all(grad == 0.0) and np.all(value == 0.0)
