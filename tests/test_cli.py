import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiwell import cli, connect, diagnostics, fields, groups, partitions, potentials


def run(args):
    return cli.main(args)


def write_config(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def test_connect1d_report(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {"potential": "double_well", "half_length": 10.0, "intervals": 2000, "tol": 1e-8},
    )
    out = tmp_path / "out"
    assert run(["connect1d", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["action_sigma"] == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-3)
    assert report["equipartition_residual"] <= 1e-4
    assert report["hyperbolicity_gap"] == pytest.approx(1.5, abs=0.02)
    assert report["decay_k"] > 0
    assert report["tool_version"]
    assert report["config_hash"]
    prof = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    assert prof.shape == (2001, 2)


def test_connect1d_deterministic_rerun(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"potential": "double_well", "intervals": 400})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["connect1d", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
    assert run(["connect1d", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
    assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_solve_deterministic_rerun(tmp_path):
    cfg = write_config(tmp_path / "s.json", dict(JUNCTION, grid={"half_width": 4.0, "points": 41}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["solve", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
    assert run(["solve", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
    assert (out1 / "field.csv").read_bytes() == (out2 / "field.csv").read_bytes()


def test_partition_deterministic_rerun(tmp_path):
    dj = partitions.partition_to_json(partitions.double_junction(0.4))
    cfg = write_config(tmp_path / "p.json", {"partition": dj, "blowdown_reference": "x_cone"})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["partition", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
    assert run(["partition", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
    for name in ("blowdown.csv", "density.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_partition_clips_each_window_once(tmp_path, monkeypatch):
    # one clip per density radius (for its density and energy) and one per
    # blow-down scale (for its density); the Hausdorff distance clips apart
    clips = []
    lengths_in = partitions._lengths_in
    monkeypatch.setattr(partitions, "_lengths_in", lambda part, w: clips.append(w) or lengths_in(part, w))
    dj = partitions.partition_to_json(partitions.double_junction(0.4))
    cfg = write_config(tmp_path / "p.json", {"partition": dj, "radii": [0.5, 1.0, 2.0], "blowdown_scales": [1.0, 0.5]})
    assert run(["partition", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert [w.radius for w in clips] == [0.5, 1.0, 2.0, 1.0, 1.0]


def test_connect1d_bad_potential_name(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"potential": "no_such_potential"})
    assert run(["connect1d", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_connect1d_identical_wells_numerical_error(tmp_path, capsys):
    # the ConnectionError leaves through main, before any output is written
    cfg = write_config(
        tmp_path / "c.json", {"potential": "double_well", "wells": [[1.0], [1.0]]}
    )
    assert run(["connect1d", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "numerical failure: endpoints coincide: no connection to compute\n"
    assert not (tmp_path / "o").exists()


def test_connect1d_below_the_rounding_floor_reports_and_exits_2(tmp_path, capsys):
    # tol 1e-15 lies below the double well's rounding floor at 400 intervals:
    # the profile and report are written, then the run exits 2
    cfg = write_config(tmp_path / "c.json", {"potential": "double_well", "intervals": 400, "tol": 1e-15})
    out = tmp_path / "o"
    assert run(["connect1d", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("solver did not reach tolerance: residual ")
    assert json.loads((out / "report.json").read_text())["converged"] is False
    assert (out / "profile.csv").exists()


def test_solve_out_of_steps_reports_and_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "s.json", dict(JUNCTION, grid={"half_width": 4.0, "points": 41}, solver={"max_iter": 1})
    )
    out = tmp_path / "o"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("solver did not converge: residual ")
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False and report["iterations"] == 1 and report["stop_reason"] == "max_iter"
    assert (out / "field.csv").exists() and (out / "field_meta.json").exists()


QUARTIC_WELL = {  # W = (u^2 - 1)^2, written as a custom potential
    "monomials": [
        {"coeff": 1.0, "exponents": [4]},
        {"coeff": -2.0, "exponents": [2]},
        {"coeff": 1.0, "exponents": [0]},
    ],
    "wells": [[-1.0], [1.0]],
}
MISSHAPED_WELLS = {  # W = (u1^2 - 1)^2 + u2^2 + u3^2, nondegenerate at (+-1, 0, 0)
    "monomials": [
        {"coeff": 1.0, "exponents": [4, 0, 0]},
        {"coeff": -2.0, "exponents": [2, 0, 0]},
        {"coeff": 1.0, "exponents": [0, 0, 0]},
        {"coeff": 1.0, "exponents": [0, 2, 0]},
        {"coeff": 1.0, "exponents": [0, 0, 2]},
    ],
}


@pytest.mark.parametrize(
    "potential",
    [
        {"wells": [[-1.0], [1.0]]},
        {"monomials": []},
        "missing_potential.json",
        # read as an int64, 2.5 would be the power 2: a run of another potential
        {"monomials": [{"coeff": 1.0, "exponents": [2.5]}, {"coeff": -1.0, "exponents": [0]}]},
        {"monomials": [{"coeff": 1.0, "exponents": [True]}, {"coeff": -1.0, "exponents": [0]}]},
        {"monomials": [{"coeff": 1.0, "exponents": [-1]}, {"coeff": -1.0, "exponents": [0]}]},
        # a nan term was dropped: a run of the potential without it
        {"monomials": QUARTIC_WELL["monomials"] + [{"coeff": math.nan, "exponents": [6]}], "wells": [[-1.0], [1.0]]},
        {"monomials": QUARTIC_WELL["monomials"] + [{"coeff": math.inf, "exponents": [6]}], "wells": [[-1.0], [1.0]]},
        {"monomials": QUARTIC_WELL["monomials"], "wells": [[math.nan], [1.0]]},
        # a float coercion read true as 1.0 and "-2" as -2.0: a run of another potential
        dict(QUARTIC_WELL, monomials=[{"coeff": True, "exponents": [4]}] + QUARTIC_WELL["monomials"][1:]),
        dict(QUARTIC_WELL, monomials=[{"coeff": "-2", "exponents": [4]}] + QUARTIC_WELL["monomials"][1:]),
        # a name that is not a string was echoed into report.json
        dict(QUARTIC_WELL, name=["quartic"]),
        # three 2-vectors were reshaped into the two 3-vectors (1, 0, 0) and (-1, 0, 0)
        {"monomials": MISSHAPED_WELLS["monomials"], "wells": [[1, 0], [0, -1], [0, 0]]},
    ],
    ids=[
        "no-monomials",
        "empty-monomials",
        "missing-file",
        "fractional-exponent",
        "boolean-exponent",
        "negative-exponent",
        "nan-coefficient",
        "inf-coefficient",
        "nan-well",
        "boolean-coefficient",
        "string-coefficient",
        "listed-name",
        "misshaped-wells",
    ],
)
@pytest.mark.parametrize("command", ["connect1d", "solve"])
def test_malformed_custom_potential_is_usage_error(tmp_path, capsys, command, potential):
    if isinstance(potential, str):
        potential = str(tmp_path / potential)
    config = {"potential": potential} if command == "connect1d" else {"potential": potential, "group": "dihedral_3"}
    cfg = write_config(tmp_path / "c.json", config)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: bad value for 'potential'") and "Traceback" not in err


def test_solve_and_diagnose_pipeline(tmp_path):
    cfg = write_config(
        tmp_path / "solve.json",
        {
            "potential": "triple_well",
            "group": "dihedral_3",
            "grid": {"half_width": 6.0, "points": 121},
            "solver": {"residual_target": 5e-3, "max_iter": 20_000},
            "connection": {"half_length": 5.0, "intervals": 1000},
        },
    )
    out = tmp_path / "run"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"]
    assert report["pde_residual"] <= 5e-3
    assert report["group"] == "dihedral_3"
    # dihedral-3 rotates the grid; Newton solves it like every other action
    assert report["method"] == "newton" and report["stop_reason"] == "converged"

    dcfg = write_config(
        tmp_path / "diag.json",
        {
            "potential": "triple_well",
            "field": {"csv": str(out / "field.csv"), "meta": str(out / "field_meta.json")},
            "hamiltonian_strip": [-5.0, -2.5],
            "angle_radius": 4.0,
        },
    )
    dout = tmp_path / "diag"
    assert run(["diagnose", "--config", dcfg, "--out", str(dout)]) == 0
    diag = json.loads((dout / "diagnostics.json").read_text())
    assert diag["monotonicity_violation"] <= 1e-6
    assert np.allclose(diag["junction_angles_deg"], 120.0, atol=3.0)
    assert (dout / "monotonicity.csv").exists()
    assert (dout / "hamiltonian.csv").exists()


def test_diagnose_evaluates_the_interior_terms_once(tmp_path, monkeypatch):
    # one stress_energy record serves the divergence, Modica, monotonicity and
    # flux checks; the Hamiltonian check takes its own full-grid gradients
    g = fields.Grid(dim=2, half_width=4.0, points=41)
    csv, meta = tmp_path / "f.csv", tmp_path / "f.json"
    fields.save_field(fields.field_from_function(g, lambda x: np.tanh(x[:, ::-1]), 2), csv, meta)
    calls = []
    for name in ("stress_energy", "_gradients"):
        fn = getattr(diagnostics, name)
        monkeypatch.setattr(diagnostics, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    config = {"potential": "triple_well", "field": {"csv": str(csv), "meta": str(meta)}}
    assert run(["diagnose", "--config", write_config(tmp_path / "c.json", config), "--out", str(tmp_path / "o")]) == 0
    assert sorted(calls) == ["_gradients", "_gradients", "stress_energy"]


def test_solve_connects_the_base_well_to_its_nearest_well(tmp_path):
    # the antipodal partner's profile joins only antipodal walls; its solve
    # converges too, to a critical point of more than twice the energy
    # (468.7 against 220.9 at 17^3)
    grid = {"half_width": 5.0, "points": 17}
    cfg = write_config(tmp_path / "c.json", {"potential": SIX_WELLS, "group": "cubic", "grid": grid})
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    pot, grp = potentials.potential_from_json(SIX_WELLS), groups.get_group("cubic")
    rm = groups.build_region_map(grp, pot.wells[0])
    prof = connect.solve_connection(pot, -rm.wells[0], rm.wells[0], 6.0, 1200, tol=1e-9)
    u0 = fields.initial_guess(grp, rm, prof, fields.Grid(dim=3, **grid))
    antipodal = fields.minimize(u0, pot, symmetry=grp, opts=fields.SolveOptions(residual_target=1e-3))
    assert report["converged"] and antipodal.converged and report["equivariance_after"] <= 1e-12
    assert report["energy"] < antipodal.energy


def test_solve_joins_the_cube_corners(tmp_path, cube_corners):
    # the nearest corner, not the antipode, is the connection partner: the
    # junction solves with its defect at rounding level
    config = {"potential": cube_corners, "group": "cubic", "grid": {"half_width": 5.0, "points": 17}}
    assert run(["solve", "--config", write_config(tmp_path / "c.json", config), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["converged"] and report["equivariance_after"] <= 1e-12


EQUILATERAL = {
    "A": [0.0, 1.0],
    "B": [math.sqrt(3) / 2, -0.5],
    "C": [-math.sqrt(3) / 2, -0.5],
    "e12": 1.0,
    "e13": 1.0,
    "e23": 1.0,
}
JUNCTION = {"potential": "triple_well", "group": "dihedral_3"}
TRIOD = {
    "phases": 3,
    "segments": [],
    "rays": [
        {"phase_i": 1, "phase_j": 2, "origin": [0, 0], "direction": [0, 1]},
        {"phase_i": 2, "phase_j": 3, "origin": [0, 0], "direction": [-0.866, -0.5]},
        {"phase_i": 3, "phase_j": 1, "origin": [0, 0], "direction": [0.866, -0.5]},
    ],
}

# W = (|u|^2 - 1)^2 + sum_{i<j} u_i^2 u_j^2 with the 6 wells +-e_i: the cubic
# group carries the base well e_1 onto each, and the lex-first other well is
# its antipode -e_1, which the mirror x_1 -> -x_1 swaps with it
SIX_WELLS = {
    "monomials": [{"coeff": 1.0, "exponents": (4 * e).tolist()} for e in np.eye(3, dtype=int)]
    + [{"coeff": 3.0, "exponents": (2 * (e + f)).tolist()} for e, f in itertools.combinations(np.eye(3, dtype=int), 2)]
    + [{"coeff": -2.0, "exponents": (2 * e).tolist()} for e in np.eye(3, dtype=int)]
    + [{"coeff": 1.0, "exponents": [0, 0, 0]}],
    "wells": [(s * e).tolist() for e in np.eye(3) for s in (1.0, -1.0)],
}
# the orbit of a base well at the origin is that well alone
ORIGIN_WELL = {"monomials": [{"coeff": 1.0, "exponents": [2, 0]}, {"coeff": 1.0, "exponents": [0, 2]}],
               "wells": [[0.0, 0.0], [1.0, 0.0]]}


@pytest.mark.parametrize(
    "command, config",
    [
        ("solve", dict(JUNCTION, grid={"points": 40})),
        ("solve", dict(JUNCTION, grid={"half_width": "wide"})),
        ("solve", dict(JUNCTION, grid=5)),
        ("solve", dict(JUNCTION, solver={"max_iter": "many"})),
        ("solve", dict(JUNCTION, solver={"k_sym": 0})),
        ("solve", dict(JUNCTION, solver={"step_rule": "sideways"})),
        ("solve", dict(JUNCTION, solver={"dt": -1.0})),
        ("solve", dict(JUNCTION, resume={"field": "missing.csv"})),
        ("solve", dict(JUNCTION, grid={"points": 41}, solver={"step_rule": "fixed", "dt": 1.0})),
        ("solve", dict(JUNCTION, solver={"step_rule": "fixed"})),
        ("solve", dict(JUNCTION, solver={"dt": 1e-3})),
        ("solve", dict(JUNCTION, solver={"equivariance_budget": 2.0})),
        ("solve", dict(JUNCTION, solver={"check_every": 100})),
        ("steiner", {"triangle": EQUILATERAL, "tol": "x"}),
        ("steiner", {"triangle": EQUILATERAL, "tol": 1e-10}),
        ("connect1d", {"potential": "double_well", "intervals": "lots"}),
        ("connect1d", {"potential": "double_well", "half_length": -1}),
        ("connect1d", {"potential": "double_well", "half_length": 0}),
        ("connect1d", {"potential": "double_well", "half_length": "nan"}),
        ("connect1d", {"potential": "double_well", "intervals": 1}),
        ("connect1d", {"potential": "double_well", "intervals": 2}),
        ("connect1d", {"potential": "double_well", "tol": -1}),
        ("solve", dict(JUNCTION, connection={"half_length": -1})),
        ("solve", dict(JUNCTION, connection={"half_length": 0})),
        ("solve", dict(JUNCTION, connection={"half_length": "nan"})),
        ("solve", dict(JUNCTION, connection={"intervals": 1})),
        ("solve", dict(JUNCTION, connection={"intervals": 2})),
        ("solve", dict(JUNCTION, connection={"tol": -1})),
        ("partition", {"partition": {"phases": 2, "segments": []}, "radii": ["a"]}),
        ("steiner", ["not", "an", "object"]),
        ("partition", {"partition": TRIOD, "radii": [-1.0]}),
        ("partition", {"partition": TRIOD, "blowdown_scales": [0.5, 1.0]}),
        ("partition", {"partition": TRIOD, "blowdown_scales": [0.0]}),
        ("partition", {"partition": TRIOD, "tensions": [[0.0, 1.0], [1.0, 0.0]]}),
        ("partition", {"partition": TRIOD, "center": [1.0]}),
        ("partition", {"partition": 5}),
        ("partition", {"partition": {"phases": "two", "segments": []}}),
        ("partition", {"partition": {"phases": 2, "segments": [{"phase_i": 1, "phase_j": 2, "endpoints": [[0, 0]]}]}}),
        ("partition", {"partition": {"phases": 2, "rays": [{"phase_i": 1, "phase_j": 2, "origin": [0, 0], "direction": [0, 0]}]}}),
        ("connect1d", {"potential": ["double_well"]}),
        ("solve", dict(JUNCTION, group=["dihedral_3"])),
        ("diagnose", {"potential": "triple_well", "field": "x.csv"}),
        ("partition", {"partition": TRIOD, "radii": [[1, 2]]}),
        ("partition", {"partition": TRIOD, "blowdown_reference": "x-cone"}),
        ("steiner", {"batch": 5}),
        ("connect1d", {"potential": "double_well", "intervals": 2.7}),
        ("solve", dict(JUNCTION, solver={"residual_target": -1})),
        ("partition", {"partition": dict(TRIOD, rays=[dict(TRIOD["rays"][0], origin=[0, 0, 0])])}),
        ("partition", {"partition": {"phases": 2, "segments": [{"phase_i": 1, "phase_j": 2, "endpoints": [[0, 0], [1, 1, 1]]}]}}),
        ("partition", {"partition": dict(TRIOD, rays=[dict(TRIOD["rays"][0], direction=[0, 1, 0])])}),
        ("partition", {"partition": dict(TRIOD, rays=[dict(TRIOD["rays"][0], origin=[0, math.nan])])}),
        ("partition", {"partition": {"phases": 2, "segments": [{"phase_i": 1, "phase_j": 2, "endpoints": [[0, 0], [math.inf, 1]]}]}}),
        ("solve", dict(JUNCTION, group="dihedral_4")),
        ("partition", {"partition": TRIOD, "center": [0, math.nan]}),
        ("partition", {"partition": TRIOD, "radii": [0.5, math.inf]}),
        ("partition", {"partition": TRIOD, "blowdown_scales": [math.inf, 1.0]}),
        ("solve", dict(JUNCTION, solver={"residual_target": math.inf})),
        ("connect1d", {"potential": "double_well", "tol": math.inf}),
        ("solve", dict(JUNCTION, connection={"tol": math.inf})),
        ("solve", dict(JUNCTION, solver={"max_iter": -1})),
        ("partition", {"partition": TRIOD, "tensions": [[0, math.nan, 1], [math.nan, 0, 1], [1, 1, 0]]}),
        ("partition", {"partition": TRIOD, "tensions": [[0, math.inf, 1], [math.inf, 0, 1], [1, 1, 0]]}),
        ("connect1d", {"potential": "double_well", "wells": [[math.nan], [1.0]]}),
        ("solve", {"potential": ORIGIN_WELL, "group": "dihedral_3", "grid": {"points": 11}}),
    ],
    ids=[
        "even-points",
        "text-half-width",
        "grid-not-object",
        "text-max-iter",
        "zero-k-sym",
        "unknown-step-rule",
        "negative-dt",
        "resume-without-meta",
        "unstable-fixed-dt",
        "removed-step-rule",
        "removed-dt",
        "removed-equivariance-budget",
        "removed-check-every",
        "text-tol",
        "removed-steiner-tol",
        "text-intervals",
        "negative-half-length",
        "zero-half-length",
        "nan-half-length",
        "one-interval",
        "two-intervals",
        "negative-tol",
        "connection-negative-half-length",
        "connection-zero-half-length",
        "connection-nan-half-length",
        "connection-one-interval",
        "connection-two-intervals",
        "connection-negative-tol",
        "text-radii",
        "config-not-object",
        "negative-radius",
        "increasing-scales",
        "zero-scale",
        "tensions-smaller-than-phases",
        "one-element-center",
        "partition-not-object",
        "text-phases",
        "one-endpoint",
        "zero-direction-ray",
        "listed-potential",
        "listed-group",
        "field-not-object",
        "nested-radii",
        "misspelled-reference",
        "numeric-batch",
        "fractional-intervals",
        "negative-residual-target",
        "3d-ray-origin",
        "3d-segment-endpoint",
        "3d-ray-direction",
        "nan-ray-origin",
        "inf-segment-endpoint",
        "group-off-the-wells",
        "nan-center",
        "inf-radius",
        "inf-scale",
        "inf-residual-target",
        "inf-tol",
        "connection-inf-tol",
        "negative-max-iter",
        "nan-tension",
        "inf-tension",
        "nan-endpoint",
        "base-well-fixed-by-group",
    ],
)
def test_bad_config_value_is_usage_error(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path / "c.json", config)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "command, config",
    [
        ("connect1d", {"potential": "double_well", "tol": -1}),
        ("solve", dict(JUNCTION, connection={"tol": -1})),
        ("diagnose", {"potential": "double_well", "field": {"csv": "missing.csv", "meta": "missing.json"}}),
        ("steiner", {"triangle": EQUILATERAL, "tol": 1e-10}),
        ("partition", {"partition": TRIOD, "blowdown_scales": [0.5, 1.0]}),
    ],
    ids=["connect1d", "solve", "diagnose", "steiner", "partition"],
)
def test_usage_error_creates_no_out_directory(tmp_path, command, config):
    # the output directory is made just before the first write, so a
    # rejected config leaves nothing behind
    cfg = write_config(tmp_path / "c.json", config)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("potential", "tetra_well"),
        ("potential", "double_well"),
        ("monotonicity_radii", [100.0]),
        ("monotonicity_radii", [0.0, 1.0]),
        ("monotonicity_radii", [-1.0, 1.0]),
        ("monotonicity_radii", [2.0, 1.0]),
        ("flux_radii", [[1, 2]]),
        ("flux_radii", [-1.0]),
        ("hamiltonian_strip", [1.0]),
        ("hamiltonian_strip", [2.0, -2.0]),
        ("angle_radius", 0),
    ],
    ids=[
        "m-too-large",
        "m-too-small",
        "radius-beyond-box",
        "zero-radius",
        "negative-radius",
        "decreasing-radii",
        "nested-flux-radii",
        "negative-flux-radius",
        "one-number-strip",
        "reversed-strip",
        "zero-angle-radius",
    ],
)
def test_bad_diagnose_value_is_usage_error(tmp_path, capsys, key, value):
    g = fields.Grid(dim=2, half_width=4.0, points=21)
    csv, meta = tmp_path / "f.csv", tmp_path / "f.json"
    fields.save_field(fields.VectorField(g, np.random.default_rng(0).normal(size=g.shape + (2,))), csv, meta)
    config = {"potential": "triple_well", "field": {"csv": str(csv), "meta": str(meta)}, key: value}
    cfg = write_config(tmp_path / "c.json", config)
    assert run(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err and repr(key) in err
    assert not (tmp_path / "o").exists()  # rejected before any output is written


@pytest.mark.parametrize(
    "command, section, key",
    [("solve", "solver", "k_sym"), ("solve", "solver", "check_every"), ("steiner", None, "tol")],
)
def test_removed_key_is_named(tmp_path, capsys, command, section, key):
    if section is None:
        config = {"triangle": EQUILATERAL, key: 1}
    else:
        config = dict(JUNCTION, **{section: {key: 1}})
    cfg = write_config(tmp_path / "c.json", config)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"usage error: {section or command} key {key!r} is unknown\n"


MISSING_FIELD = {"csv": "missing.csv", "meta": "missing.json"}


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("solve", dict(JUNCTION, solver={"residual_targt": 1e-9}), "solver key 'residual_targt' is unknown; did you mean 'residual_target'?"),
        ("solve", dict(JUNCTION, conection={"tol": 1e-9}), "solve key 'conection' is unknown; did you mean 'connection'?"),
        ("connect1d", {"potential": "double_well", "half_lenght": 3.0}, "connect1d key 'half_lenght' is unknown; did you mean 'half_length'?"),
        ("diagnose", {"potential": "triple_well", "field": MISSING_FIELD, "angle_radus": 4.0}, "diagnose key 'angle_radus' is unknown; did you mean 'angle_radius'?"),
        ("steiner", {"triangle": EQUILATERAL, "weights": [1, 1, 1]}, "steiner key 'weights' is unknown"),
        ("steiner", {"triangle": dict(EQUILATERAL, E12=1.0)}, "triangle key 'E12' is unknown; did you mean 'e12'?"),
        ("partition", {"partition": TRIOD, "centre": [0, 0]}, "partition key 'centre' is unknown; did you mean 'center'?"),
    ],
    ids=["solver-typo", "section-typo", "connect1d-typo", "diagnose", "steiner", "triangle", "partition"],
)
def test_unknown_key_is_named(tmp_path, capsys, command, config, message):
    # a key the table does not declare would be silently ignored, so the run
    # would differ from the one the config describes
    cfg = write_config(tmp_path / "c.json", config)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("partition", {"partition": {"phases": 3, "ray": TRIOD["rays"]}}, "partition key 'ray' is unknown"),
        ("partition", {"partition": dict(TRIOD, rays=[dict(TRIOD["rays"][0], dir=[0, 1])])}, "ray key 'dir' is unknown"),
        ("connect1d", {"potential": {"monomials": QUARTIC_WELL["monomials"], "well": [[-1.0], [1.0]]},
                       "wells": [[-1.0], [1.0]], "intervals": 100}, "custom potential key 'well' is unknown"),
        ("connect1d", {"potential": dict(QUARTIC_WELL, monomials=[{"coef": 1.0, "exponents": [4]}]), "intervals": 100},
         "monomial key 'coef' is unknown"),
    ],
    ids=["partition-ray", "ray-dir", "potential-well", "monomial-coef"],
)
def test_unknown_schema_key_is_named(tmp_path, capsys, command, config, message):
    # the partition and custom-potential schemas read only the keys they
    # know, so a misspelled one would be read as absent: no rays, no wells
    cfg = write_config(tmp_path / "c.json", config)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: bad value for ") and message in err
    assert not (tmp_path / "o").exists()


def test_custom_potential_connection(tmp_path):
    # a custom potential runs end to end: (u^2 - 1)^2 has sigma = 4 sqrt(2) / 3
    cfg = write_config(tmp_path / "c.json", {"potential": QUARTIC_WELL, "intervals": 400})
    assert run(["connect1d", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["action_sigma"] == pytest.approx(4 * math.sqrt(2) / 3, rel=1e-3)


def test_connection_endpoint_of_another_length_is_usage_error(tmp_path, capsys):
    # the endpoint [1.0, 2.0] of the double well read as W(1.0) = 0, passed the well check and
    # failed later as "field value dimension does not match potential"
    cfg = write_config(tmp_path / "c.json", {"potential": "double_well", "wells": [[-1.0], [1.0, 2.0]]})
    assert run(["connect1d", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: point length 2 does not match potential 'double_well' (m = 1)\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tag", [1.5, True, "1"])
def test_partition_tag_that_is_not_a_whole_number_is_usage_error(tmp_path, capsys, tag):
    partition = json.loads(json.dumps(TRIOD))
    partition["rays"][0]["phase_i"] = tag
    cfg = write_config(tmp_path / "c.json", {"partition": partition})
    assert run(["partition", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: bad value for 'partition'")
    assert f"ray 0 phase_i must be an integer; got {tag!r}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("phases", [0, -1])
def test_partition_without_phases_is_usage_error(tmp_path, capsys, phases):
    cfg = write_config(tmp_path / "c.json", {"partition": {"phases": phases}})
    assert run(["partition", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("usage error: bad value for 'partition'")


def _key_paths(table, prefix=()):
    """Every key path of a config table, section keys included."""
    for key, spec in table.items():
        yield prefix + (key,)
        if isinstance(spec, dict):
            yield from _key_paths(spec, prefix + (key,))


# JSON values of every type; none sizes a grid or a profile beyond the bases below
FUZZ_POOL = [None, True, 0, -1, 3, 0.5, -1.0, "", "x", [], [[1, 2]], {}, {"a": 1}]


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    """A small valid config per subcommand; diagnose reads the field that solve's writes."""
    work = tmp_path_factory.mktemp("fuzz")
    bases = {
        "connect1d": {"potential": "double_well", "half_length": 4.0, "intervals": 40, "tol": 1e-6},
        "solve": dict(
            JUNCTION,
            grid={"half_width": 3.0, "points": 21},
            solver={"residual_target": 1e-2, "max_iter": 20},
            connection={"half_length": 3.0, "intervals": 40},
        ),
        "diagnose": {
            "potential": "triple_well",
            "field": {"csv": str(work / "solve" / "field.csv"), "meta": str(work / "solve" / "field_meta.json")},
        },
        "steiner": {"triangle": EQUILATERAL},
        "partition": {"partition": TRIOD, "radii": [0.5, 1.0], "blowdown_scales": [1.0, 0.5]},
    }
    for command, config in bases.items():  # solve first: diagnose reads its field
        cfg = write_config(work / f"{command}.json", config)
        assert run([command, "--config", cfg, "--out", str(work / command)]) == 0
    return bases


@pytest.mark.parametrize("command", sorted(cli.TABLES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_config_fuzz_exits_cleanly(fuzz_bases, command, data):
    # one table key set to a pool value, or one unknown key added: the run
    # succeeds, fails as a usage error or fails numerically, never by a traceback
    config = json.loads(json.dumps(fuzz_bases[command]))
    table = cli.TABLES[command]
    if data.draw(st.booleans(), label="replace"):
        *section, key = data.draw(st.sampled_from(list(_key_paths(table))), label="key")
    else:
        section = data.draw(st.sampled_from([[]] + [[k] for k, v in table.items() if isinstance(v, dict)]), label="section")
        known = table[section[0]] if section else table
        key = data.draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8).filter(lambda k: k not in known))
    target = config
    for name in section:
        target = target.setdefault(name, {})
    target[key] = data.draw(st.sampled_from(FUZZ_POOL), label="value")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        cfg = write_config(Path(tmp) / "c.json", config)
        code = run([command, "--config", cfg, "--out", os.path.join(tmp, "o")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("usage error: ")


def _readme_subcommands() -> dict:
    """The README's "Command line" section split at its subcommand headings."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return {part.split("\n", 1)[0].strip("` "): part for part in section.split("\n### ")[1:]}


def test_readme_lists_every_table_key():
    parts = _readme_subcommands()
    assert set(parts) == set(cli.TABLES)
    for command, table in cli.TABLES.items():
        for path in _key_paths(table):
            assert f"`{path[-1]}`" in parts[command], (command, path)
        examples = re.findall(r"```json\n(.*?)```", parts[command], re.S)
        assert examples, command
        for example in examples:
            cli._read(json.loads(example), table, command)


@pytest.mark.parametrize("command", ["connect1d", "solve"])
def test_bad_connection_value_names_the_key(tmp_path, capsys, command):
    for key, value in (("half_length", 0), ("intervals", 2), ("tol", -1)):
        if command == "connect1d":
            config = {"potential": "double_well", key: value}
        else:
            config = dict(JUNCTION, connection={key: value})
        cfg = write_config(tmp_path / "c.json", config)
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err


def test_resume_field_with_non_equivariant_boundary_is_usage_error(tmp_path, capsys):
    # dihedral_2 flips coordinate signs, so its projection maps boundary
    # nodes to boundary nodes and could not keep a boundary that breaks it
    ridge = {  # W = (u1^2 - 1)^2 / 4 + u2^2 / 2, invariant under dihedral_2
        "monomials": [
            {"coeff": 0.25, "exponents": [4, 0]},
            {"coeff": -0.5, "exponents": [2, 0]},
            {"coeff": 0.25, "exponents": [0, 0]},
            {"coeff": 0.5, "exponents": [0, 2]},
        ],
        "wells": [[1.0, 0.0], [-1.0, 0.0]],
    }
    g = fields.Grid(dim=2, half_width=2.0, points=11)
    csv, meta = tmp_path / "f.csv", tmp_path / "f.json"
    fields.save_field(fields.VectorField(g, np.random.default_rng(0).normal(size=g.shape + (2,))), csv, meta)
    config = {"potential": ridge, "group": "dihedral_2", "resume": {"field": str(csv), "meta": str(meta)}}
    cfg = write_config(tmp_path / "c.json", config)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: bad start field: boundary values are not equivariant")
    assert "Traceback" not in err


def test_removed_solver_key_is_named(tmp_path, capsys):
    # a key of the deleted explicit solver asked for a different solver than
    # the one that would run, so the error names it
    for key, value in (("step_rule", "fixed"), ("dt", 1e-3), ("equivariance_budget", 2.0)):
        cfg = write_config(tmp_path / "c.json", dict(JUNCTION, solver={"residual_target": 1e-3, key: value}))
        assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"usage error: solver key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("dim, m", [(1, 2), (2, 1)], ids=["wrong-dim", "wrong-m"])
def test_resume_field_of_wrong_shape_is_usage_error(tmp_path, capsys, dim, m):
    g = fields.Grid(dim=dim, half_width=2.0, points=5)
    csv, meta = tmp_path / "f.csv", tmp_path / "f.json"
    fields.save_field(fields.constant_field(g, np.zeros(m)), csv, meta)
    cfg = write_config(tmp_path / "c.json", dict(JUNCTION, resume={"field": str(csv), "meta": str(meta)}))
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: resume field has dim") and "Traceback" not in err


def test_solve_dimension_mismatch(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"potential": "double_well", "group": "dihedral_3"})
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_solve_rejects_degenerate_potential(tmp_path):
    cfg = write_config(
        tmp_path / "c.json", {"potential": "ginzburg_landau_2", "group": "dihedral_3"}
    )
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_diagnose_corrupt_field(tmp_path):
    bad_csv = tmp_path / "f.csv"
    bad_csv.write_text("x1,x2,u1\nnot,numbers,at_all\n")
    meta = tmp_path / "m.json"
    meta.write_text(json.dumps({"dim": 2, "half_width": 1.0, "points": 3, "m": 1}))
    cfg = write_config(
        tmp_path / "d.json",
        {"potential": "double_well", "field": {"csv": str(bad_csv), "meta": str(meta)}},
    )
    assert run(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_steiner_single_and_batch(tmp_path):
    cfg = write_config(
        tmp_path / "s.json",
        {
            "triangle": {
                "A": [0.0, 1.0],
                "B": [math.sqrt(3) / 2, -0.5],
                "C": [-math.sqrt(3) / 2, -0.5],
                "e12": 1.0,
                "e13": 1.0,
                "e23": 1.0,
            }
        },
    )
    out = tmp_path / "steiner"
    assert run(["steiner", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "steiner.csv").read_text().strip().splitlines()
    _, px, py, res, captured, converged, err = rows[1].split(",")
    assert abs(float(px)) < 1e-9 and abs(float(py)) < 1e-9
    assert float(res) <= 1e-10
    assert captured == "0" and converged == "1"

    batch = tmp_path / "batch.csv"
    batch.write_text(
        "Ax,Ay,Bx,By,Cx,Cy,e12,e13,e23\n"
        "0,1,0.866,-0.5,-0.866,-0.5,1,1,1\n"
        "0,0,1,0,0,1,1,1,-1\n"  # bad weight: per-row error, batch continues
        "0,0,1,0,0,1,1,1\n"  # eight columns
        "0,0,1,0,zero,1,1,1,1\n"  # non-numeric cell
        "0,1,0.866,-0.5,-0.866,-0.5,1,1,1\n"
    )
    cfg2 = write_config(tmp_path / "s2.json", {"batch": str(batch)})
    out2 = tmp_path / "steiner2"
    assert run(["steiner", "--config", cfg2, "--out", str(out2)]) == 0
    summary = json.loads((out2 / "summary.json").read_text())
    assert summary["instances"] == 5 and summary["errors"] == 3
    rows = [r.split(",") for r in (out2 / "steiner.csv").read_text().splitlines()[1:]]
    assert [len(r) for r in rows] == [7] * 5
    assert rows[1][6] == "weights must be positive"
    assert rows[2][6] == "expected 9 columns; got 8"
    assert "zero" in rows[3][6]
    assert rows[4][1:] == rows[0][1:] and rows[0][6] == ""


def test_steiner_coincident_vertices_row_is_reported(tmp_path):
    batch = tmp_path / "batch.csv"
    batch.write_text("Ax,Ay,Bx,By,Cx,Cy,e12,e13,e23\n0,0,1,0,1,0,1,1,1\n0,1,0.866,-0.5,-0.866,-0.5,1,1,1\n")
    cfg = write_config(tmp_path / "s.json", {"batch": str(batch)})
    out = tmp_path / "steiner"
    assert run(["steiner", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["errors"] == 1
    rows = [r.split(",") for r in (out / "steiner.csv").read_text().splitlines()[1:]]
    assert rows[0][1:] == ["", "", "", "", "", "vertices must be distinct"]
    assert rows[1][6] == "" and rows[1][5] == "1"


@pytest.mark.parametrize(
    "text, message",
    [
        # the first row was dropped as the header: two rows in, "instances": 1 out
        ("0,1,0.866,-0.5,-0.866,-0.5,1,1,1\n0,0,4,0,1,3,1,2,1.5\n", "line 1 is '0,1,0.866,-0.5,-0.866,-0.5,1,1,1'"),
        ("Ax;Ay;Bx;By;Cx;Cy;e12;e13;e23\n0,0,4,0,1,3,1,2,1.5\n", "line 1 is 'Ax;Ay;Bx;By;Cx;Cy;e12;e13;e23'"),
        ("", "is empty"),
    ],
    ids=["no-header", "other-header", "empty"],
)
def test_steiner_batch_without_its_header_is_a_usage_error(tmp_path, capsys, text, message):
    batch = tmp_path / "batch.csv"
    batch.write_text(text)
    cfg = write_config(tmp_path / "s.json", {"batch": str(batch)})
    assert run(["steiner", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: batch {batch} ") and message in err
    assert "must be the header Ax,Ay,Bx,By,Cx,Cy,e12,e13,e23" in err
    assert not (tmp_path / "o").exists()


def _steiner_batch(tmp_path, lines):
    batch = tmp_path / "batch.csv"
    batch.write_text("Ax,Ay,Bx,By,Cx,Cy,e12,e13,e23\n" + "".join(line + "\n" for line in lines))
    cfg = write_config(tmp_path / "s.json", {"batch": str(batch)})
    out = tmp_path / "steiner"
    assert run(["steiner", "--config", cfg, "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "steiner.csv").read_text().splitlines()[1:]]
    return json.loads((out / "summary.json").read_text()), rows


def test_steiner_non_finite_rows_are_errors(tmp_path):
    good = "0,1,0.866,-0.5,-0.866,-0.5,1,1,1"
    summary, rows = _steiner_batch(
        tmp_path, [good, "0,1,0.866,nan,-0.866,-0.5,1,1,1", "0,1,0.866,-0.5,-0.866,-0.5,inf,1,1", good]
    )
    assert summary == dict(summary, instances=4, errors=2)
    for r in rows[1:3]:
        assert r[1:] == ["", "", "", "", "", "vertices and weights must be finite"]
    assert rows[0][6] == rows[3][6] == "" and rows[0][1:] == rows[3][1:]


def test_steiner_bad_rows_keep_their_index_and_message(tmp_path):
    good = ["0,1,0.866,-0.5,-0.866,-0.5,1,1,1", "1,0,-0.866,0.5,0,0,1,1,1", "0.9,0.1,-0.4,0.8,-0.2,-0.7,1.3,0.9,1.1"]
    lines = [
        good[0],
        "0,0,1,0,0,1,1,1",
        good[1],
        "0,0,1,0,1,0,1,1,1",
        "0,0,1,0,0,1,-inf,1,1",
        "0,0,1,0,0,1,1,1,0",
        good[2],
        "0,0,1,0,0,1,1,x,1",
    ]
    summary, rows = _steiner_batch(tmp_path, lines)
    assert summary["instances"] == 8 and summary["errors"] == 5
    assert [r[0] for r in rows] == [str(i) for i in range(8)]
    assert [r[6] for r in rows] == [
        "",
        "expected 9 columns; got 8",
        "",
        "vertices must be distinct",
        "vertices and weights must be finite",
        "weights must be positive",
        "",
        "could not convert string to float: 'x'",
    ]
    # each good row gives the answer it gives alone
    for k, line in zip((0, 2, 6), good):
        (tmp_path / str(k)).mkdir()
        _, alone = _steiner_batch(tmp_path / str(k), [line])
        assert rows[k][1:] == alone[0][1:]
    assert rows[2][4] == "1" and rows[0][4] == rows[6][4] == "0"


def test_partition_command(tmp_path):
    part = {
        "phases": 3,
        "segments": [],
        "rays": [
            {"phase_i": 1, "phase_j": 2, "origin": [0, 0], "direction": [0, 1]},
            {"phase_i": 2, "phase_j": 3, "origin": [0, 0], "direction": [-0.866, -0.5]},
            {"phase_i": 3, "phase_j": 1, "origin": [0, 0], "direction": [0.866, -0.5]},
        ],
    }
    cfg = write_config(
        tmp_path / "p.json",
        {"partition": part, "radii": [0.5, 1.0, 1.5], "blowdown_scales": [1.0, 0.5]},
    )
    out = tmp_path / "part"
    assert run(["partition", "--config", cfg, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
    assert np.allclose(rows[:, 1], 1.5, atol=1e-12)


def test_partition_bad_labels(tmp_path):
    part = {"phases": 2, "segments": [{"phase_i": 1, "phase_j": 5, "endpoints": [[0, 0], [1, 0]]}]}
    cfg = write_config(tmp_path / "p.json", {"partition": part})
    assert run(["partition", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_missing_config_is_usage_error(tmp_path):
    assert run(["connect1d", "--out", str(tmp_path)]) == 1
    assert run(["connect1d", "--config", str(tmp_path / "nope.json")]) == 1


def test_resume_continues_from_saved_field(tmp_path):
    base = {
        "potential": "triple_well",
        "group": "dihedral_3",
        "grid": {"half_width": 6.0, "points": 121},
        "solver": {"residual_target": 5e-3, "max_iter": 20_000},
        "connection": {"half_length": 5.0, "intervals": 1000},
    }
    cfg = write_config(tmp_path / "a.json", base)
    out1 = tmp_path / "r1"
    assert run(["solve", "--config", cfg, "--out", str(out1)]) == 0
    resumed = dict(base)
    resumed["resume"] = {"field": str(out1 / "field.csv"), "meta": str(out1 / "field_meta.json")}
    resumed["solver"] = dict(base["solver"], residual_target=2e-3)
    cfg2 = write_config(tmp_path / "b.json", resumed)
    out2 = tmp_path / "r2"
    assert run(["solve", "--config", cfg2, "--out", str(out2)]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r2["pde_residual"] <= 2e-3 <= r1["pde_residual"] or r2["pde_residual"] <= r1["pde_residual"]
    assert r2["energy"] <= r1["energy"] + 1e-9


@pytest.mark.parametrize("command", ["diagnose", "solve"])
def test_non_finite_field_value_is_usage_error(tmp_path, capsys, command):
    # diagnose used to exit 0 with bare NaN tokens in diagnostics.json, and a
    # resume to exit 2 with "energy became NaN during descent"
    grid = {"half_width": 4.0, "points": 41}
    assert run(["solve", "--config", write_config(tmp_path / "s.json", dict(JUNCTION, grid=grid)),
                "--out", str(tmp_path / "s")]) == 0
    csv = tmp_path / "s" / "field.csv"
    lines = csv.read_text().splitlines(keepends=True)
    lines[5] = ",".join(lines[5].split(",")[:-1] + ["nan\n"])
    csv.write_text("".join(lines))
    meta = str(tmp_path / "s" / "field_meta.json")
    if command == "diagnose":
        config = {"potential": "triple_well", "field": {"csv": str(csv), "meta": meta}}
    else:
        config = dict(JUNCTION, grid=grid, resume={"field": str(csv), "meta": meta})
    capsys.readouterr()
    assert run([command, "--config", write_config(tmp_path / "c.json", config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot load") and "line 6: values [" in err and "must be finite" in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["diagnose", "solve"])
@pytest.mark.parametrize("key, value", [("points", 11.5), ("dim", 2.5), ("m", 2.9), ("half_width", "2")])
def test_coerced_field_metadata_is_usage_error(tmp_path, capsys, command, key, value):
    # int() truncated and float() parsed these, so diagnose exited 0 on them
    g = fields.Grid(dim=2, half_width=2.0, points=11)
    csv, meta = tmp_path / "f.csv", tmp_path / "f.json"
    fields.save_field(fields.constant_field(g, [1.0, 0.0]), csv, meta)
    meta.write_text(json.dumps(dict(json.loads(meta.read_text()), **{key: value})))
    if command == "diagnose":
        config = {"potential": "triple_well", "field": {"csv": str(csv), "meta": str(meta)}}
    else:
        config = dict(JUNCTION, resume={"field": str(csv), "meta": str(meta)})
    assert run([command, "--config", write_config(tmp_path / "c.json", config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot load") and repr(key) in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["diagnose", "solve"])
def test_field_metadata_that_is_not_an_object_is_usage_error(tmp_path, capsys, command):
    # diagnose ended in a TypeError traceback on a top-level list
    g = fields.Grid(dim=2, half_width=2.0, points=11)
    csv, meta = tmp_path / "f.csv", tmp_path / "f.json"
    fields.save_field(fields.constant_field(g, [1.0, 0.0]), csv, meta)
    meta.write_text("[]")
    if command == "diagnose":
        config = {"potential": "triple_well", "field": {"csv": str(csv), "meta": str(meta)}}
    else:
        config = dict(JUNCTION, resume={"field": str(csv), "meta": str(meta)})
    assert run([command, "--config", write_config(tmp_path / "c.json", config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot load") and str(meta) in err and "JSON object" in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def test_every_subcommand_is_byte_deterministic_across_processes(tmp_path):
    # identical config and --seed reproduce every output file byte for byte, reports included,
    # in two fresh interpreters with different string-hash seeds
    configs = {
        "connect1d": {"potential": "triple_well", "intervals": 400},
        "solve": dict(JUNCTION, grid={"half_width": 4.0, "points": 41}),
        "diagnose": {"potential": "triple_well", "field": {"csv": "solve/field.csv", "meta": "solve/field_meta.json"}},
        "steiner": {"batch": "rows.csv"},
        "partition": {"partition": partitions.partition_to_json(partitions.double_junction(0.4)),
                      "blowdown_reference": "x_cone"},
    }
    rows = "Ax,Ay,Bx,By,Cx,Cy,e12,e13,e23\n0,1,0.866,-0.5,-0.866,-0.5,1,1,1\n0,0,4,0,1,3,1,2,1.5\nnan,1,0,0,1,0,1,1,1\n"
    src = str(Path(cli.__file__).resolve().parents[1])
    trees = []
    for hash_seed in ("1", "2"):
        tree = tmp_path / f"hash{hash_seed}"
        tree.mkdir()
        (tree / "rows.csv").write_text(rows)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for command, config in configs.items():
            write_config(tree / f"{command}.json", config)
            done = subprocess.run(
                [sys.executable, "-m", "multiwell", command, "--config", f"{command}.json", "--out", command, "--seed", "7"],
                cwd=tree, env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, (command, done.stderr)
        trees.append({p.relative_to(tree).as_posix(): p.read_bytes() for p in sorted(tree.rglob("*")) if p.is_file()})
    assert {name.split("/")[0] for name in trees[0]} >= set(configs)
    assert sorted(trees[0]) == sorted(trees[1])
    for name, data in trees[0].items():
        assert data == trees[1][name], name


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def test_solve_outputs_do_not_depend_on_the_blas_thread_environment(tmp_path):
    # OpenBLAS splits the CG reductions and the sine preconditioner's products on 159 interior
    # nodes per axis across its threads, whose count defaults to the core count: the package
    # pins one thread unless the environment names a count, so a solve on 161^2 writes the
    # same bytes with no BLAS variable set as with every one pinned to 1
    src = str(Path(cli.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    config = write_config(tmp_path / "solve.json", dict(JUNCTION, grid={"half_width": 8.0, "points": 161}))
    outputs = []
    for name, env in (("unset", base), ("pinned", dict(base, **dict.fromkeys(BLAS_THREAD_VARS, "1")))):
        done = subprocess.run(
            [sys.executable, "-m", "multiwell", "solve", "--config", config, "--out", name],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append([(tmp_path / name / f).read_bytes() for f in ("field.csv", "report.json")])
    assert outputs[0][0] == outputs[1][0], "field.csv"
    assert outputs[0][1] == outputs[1][1], "report.json"


def test_python_m_multiwell_runs_from_a_source_checkout():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "multiwell", "--help"], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "partition" in done.stdout


def _jsonify(obj):
    """Reference: the report writer's former normalization, applied before
    ``json.dump(..., indent=2, sort_keys=True)`` and a final newline."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def test_write_json_writes_the_bytes_of_the_former_report_writer(tmp_path):
    report = {
        "zeta": np.float64(0.1),
        "count": np.int64(-7),
        "flag": np.bool_(True),
        "single": np.float32(0.1),
        "scalar": np.array(2.5),
        "row": np.array([1.0, math.nan, -math.inf]),
        "matrix": np.arange(6.0).reshape(2, 3) / 3,
        "ints": np.arange(3),
        "masks": np.array([True, False]),
        "pair": (np.float64(math.inf), np.int64(3), "text"),
        "nested": {"b": [np.float64(math.nan), (1, 2.5)], "a": None, "flags": (np.bool_(False), True)},
        "plain": [1, 2.0, "x", False],
    }
    path = tmp_path / "new.json"
    fields.write_json(path, report)
    old = json.dumps(_jsonify(report), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == old.encode()


def test_config_hash_is_that_of_the_normalized_config():
    config = json.loads(
        '{"potential": {"monomials": [{"coeff": 1.0, "exponents": [4]}, {"coeff": -2, "exponents": [2]}],'
        ' "wells": [[-1.0], [1.0]], "name": "q"}, "tol": 1e-9, "grid": {"points": 161, "half_width": NaN},'
        ' "flags": [true, null, Infinity], "label": "\u00e9"}'
    )
    old = hashlib.sha256(json.dumps(_jsonify(config), sort_keys=True).encode()).hexdigest()[:16]
    assert cli._config_hash(config) == old
