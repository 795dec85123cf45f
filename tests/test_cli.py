import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multiwell import cli, fields


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


def test_connect1d_bad_potential_name(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"potential": "no_such_potential"})
    assert run(["connect1d", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_connect1d_identical_wells_numerical_error(tmp_path):
    cfg = write_config(
        tmp_path / "c.json", {"potential": "double_well", "wells": [[1.0], [1.0]]}
    )
    assert run(["connect1d", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "potential",
    [
        {"wells": [[-1.0], [1.0]]},
        {"monomials": []},
        "missing_potential.json",
    ],
    ids=["no-monomials", "empty-monomials", "missing-file"],
)
@pytest.mark.parametrize("command", ["connect1d", "solve"])
def test_malformed_custom_potential_is_usage_error(tmp_path, capsys, command, potential):
    if isinstance(potential, str):
        potential = str(tmp_path / potential)
    cfg = write_config(tmp_path / "c.json", {"potential": potential, "group": "dihedral_3"})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err


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
    assert f"{key!r} no longer exists" in capsys.readouterr().err


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


def test_python_m_multiwell_runs_from_a_source_checkout():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "multiwell", "--help"], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "partition" in done.stdout
