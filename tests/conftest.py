"""Shared fixtures: catalog objects and the two expensive reference solves.

The junction and slab solves are session-scoped so the solver suite,
diagnostics suite, and acceptance suite all analyze the same fields; each
fixture records its wall time for the runtime criteria.
"""

import itertools
import math
import time

import numpy as np
import pytest

from multiwell import connect, fields, groups, kernels, potentials


@pytest.fixture
def interp_calls(monkeypatch):
    """The point counts of the ``kernels.interp`` calls made during the test."""
    calls, interp = [], kernels.interp
    monkeypatch.setattr(kernels, "interp", lambda *args: calls.append(len(args[1])) or interp(*args))
    return calls


@pytest.fixture
def node_image_calls(monkeypatch):
    """The g_x of the ``fields._node_image`` calls made during the test."""
    calls, node_image = [], fields._node_image
    monkeypatch.setattr(fields, "_node_image", lambda values, gx: calls.append(gx) or node_image(values, gx))
    return calls


@pytest.fixture(scope="session")
def double_well():
    return potentials.scalar_double_well()


@pytest.fixture(scope="session")
def triple_well():
    return potentials.triple_well_triangle()


@pytest.fixture(scope="session")
def tetra_well():
    return potentials.tetra_quadruple_well()


@pytest.fixture(scope="session")
def dihedral3():
    return groups.build_dihedral(3)


@pytest.fixture(scope="session")
def cubic():
    return groups.build_cubic()


@pytest.fixture(scope="session")
def tetrahedral():
    return groups.build_tetrahedral()


@pytest.fixture(scope="session")
def cube_corners():
    """W = sum_i (u_i^2 - 1/3)^2 as custom-potential JSON, with the 8 cube
    corners (+-1, +-1, +-1)/sqrt 3 as wells: the cubic group carries the base
    well onto each, but the lex-first other well is its antipode, which no
    reflection of the group swaps with it."""
    eye = np.eye(3, dtype=int)
    return {
        "monomials": [{"coeff": 1.0, "exponents": (4 * e).tolist()} for e in eye]
        + [{"coeff": -2.0 / 3.0, "exponents": (2 * e).tolist()} for e in eye]
        + [{"coeff": 1.0 / 3.0, "exponents": [0, 0, 0]}],
        "wells": [[a / math.sqrt(3.0) for a in w] for w in itertools.product([1.0, -1.0], repeat=3)],
    }


@pytest.fixture(scope="session")
def dw_profile(double_well):
    """Reference double-well connection: L = 10, h = 0.01."""
    t0 = time.time()
    prof = connect.solve_connection(
        double_well, [-1.0], [1.0], half_length=10.0, intervals=2000, tol=1e-8
    )
    prof_wall_time = time.time() - t0
    return {"profile": prof, "wall_time": prof_wall_time}


@pytest.fixture(scope="session")
def triangle_region(dihedral3, triple_well):
    return groups.build_region_map(dihedral3, triple_well.wells[0])


@pytest.fixture(scope="session")
def triangle_profile(triple_well, triangle_region):
    rm = triangle_region
    return connect.solve_connection(
        triple_well, rm.wells[1], rm.wells[0], half_length=6.0, intervals=1200, tol=1e-9
    )


@pytest.fixture(scope="session")
def junction(dihedral3, triple_well, triangle_region, triangle_profile):
    """Equivariant triple junction: triple well, dihedral-3, R = 8, 161^2."""
    grid = fields.Grid(dim=2, half_width=8.0, points=161)
    t0 = time.time()
    u0 = fields.initial_guess(dihedral3, triangle_region, triangle_profile, grid)
    opts = fields.SolveOptions(residual_target=1e-3, max_iter=60_000)
    result = fields.minimize(u0, triple_well, symmetry=dihedral3, opts=opts)
    wall_time = time.time() - t0
    return {
        "result": result,
        "initial": u0,
        "grid": grid,
        "region_map": triangle_region,
        "profile": triangle_profile,
        "wall_time": wall_time,
    }


@pytest.fixture(scope="session")
def slab_solution(double_well):
    """Dirichlet slab: boundary held at the 1D connection profile."""
    grid = fields.Grid(dim=2, half_width=5.0, points=201)

    def data(pts):
        return np.tanh(pts[:, 0] / np.sqrt(2.0))[:, None]

    u0 = fields.field_from_function(grid, data, 1)
    t0 = time.time()
    opts = fields.SolveOptions(residual_target=1e-4, max_iter=40_000)
    result = fields.solve_dirichlet(u0, double_well, data, opts=opts)
    wall_time = time.time() - t0
    return {"result": result, "grid": grid, "data": data, "wall_time": wall_time}
