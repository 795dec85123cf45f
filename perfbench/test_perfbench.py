"""Tests of the benchmark's own machinery: span arithmetic, seeded inputs,
the correctness gates, and that tracing changes no result.

Run from the root of the checkout:  python3 -m pytest perfbench -q
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from multiwell import fields, potentials  # noqa: E402
from tracing import Span  # noqa: E402


# ---------------------------------------------------------------------------
# Span arithmetic


def _span(name, start, end, parent=-1, counts=None):
    return Span(name, float(start), float(end), parent, 0, counts or {})


def test_self_time_of_nested_spans():
    spans = [
        _span("a", 0, 10),
        _span("b", 1, 4, parent=0),
        _span("c", 2, 3, parent=1),
        _span("d", 5, 9, parent=0),
        _span("e", 11, 12),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span("p", 0, 10),
        _span("x", 1, 5, parent=0),
        _span("y", 3, 7, parent=0),
        _span("z", 8, 12, parent=0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10 - 6 - 2)


def test_layer_metrics_totals_and_unattributed_time():
    spans = [
        _span("fields.minimize", 0, 10, counts={"iterations": 3}),
        _span("fields.energy", 1, 2, parent=0),
        _span("kernels.link_energy", 1.25, 1.75, parent=1, counts={"bytes": 80}),
        _span("fields.energy", 3, 4, parent=0),
        _span("fields.energy", 5, 6, parent=0),
        _span("fields.energy", 6, 7, parent=0),
        _span("fields.energy", 11, 12),  # outside minimize: not an attempted step
        _span("diagnostics.stress_energy", 13, 15),
        _span("diagnostics.divergence_residual", 13.5, 14, parent=7),
    ]
    m = tracing.layer_metrics(spans, wall=20.0)
    assert m["fields.energy.calls"] == 5
    assert m["fields.energy.s"] == pytest.approx(5.0)
    assert m["fields.energy.self_s"] == pytest.approx(4.5)
    assert m["fields.minimize.self_s"] == pytest.approx(6.0)
    assert m["fields.minimize.iterations"] == 3
    assert m["fields.minimize.accept_ratio"] == pytest.approx(3 / 4)
    assert m["kernels.link_energy.bytes"] == 80
    assert m["diagnostics.calls"] == 2
    assert m["diagnostics.s"] == pytest.approx(2.0)
    # top-level spans cover 10 + 1 + 2 of the 20 s
    assert m["unattributed_s"] == pytest.approx(7.0)


def test_op_spans_reindexes_parents():
    spans = [_span("a", 0, 1), _span("b", 2, 5)._replace(op=1), _span("c", 3, 4, parent=1)._replace(op=1)]
    sub = tracing.op_spans(spans, 1)
    assert [s.name for s in sub] == ["b", "c"]
    assert [s.parent for s in sub] == [-1, 0]


def test_tracer_records_names_parents_and_counts_then_restores():
    ticks = iter(range(1000))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    originals = (fields.energy, fields.__dict__["energy"], potentials.PotentialSpec.value_field)
    dw = potentials.scalar_double_well()
    f = fields.field_from_function(fields.Grid(dim=2, half_width=2.0, points=9), lambda p: p[:, :1], 1)
    restore = tracing.install(tracer)
    try:
        tracer.op = 7
        e_traced = fields.energy(f, dw)
    finally:
        restore()
    assert (fields.energy, fields.__dict__["energy"], potentials.PotentialSpec.value_field) == originals
    names = [s.name for s in tracer.spans]
    assert names == ["fields.energy", "kernels.link_energy", "potentials.value_field"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert all(s.op == 7 and s.end > s.start for s in tracer.spans)
    assert tracer.spans[2].counts == {"points": 81}
    assert tracer.spans[1].counts == {"bytes": f.values.nbytes}
    assert e_traced == fields.energy(f, dw)


def test_span_dump_round_trips(tmp_path):
    spans = [_span("a", 0, 1, counts={"points": 3}), _span("b", 0.25, 0.5, parent=0)]
    path = tmp_path / "spans.jsonl"
    tracing.dump(spans, path)
    lines = path.read_text().splitlines()
    cols = json.loads(lines[0])["columns"]
    rows = [dict(zip(cols, json.loads(ln))) for ln in lines[1:]]
    assert rows[0]["counts"] == {"points": 3} and rows[1]["parent"] == 0


# ---------------------------------------------------------------------------
# Seeded inputs


def test_same_seed_same_inputs_byte_for_byte(tmp_path):
    assert workloads.steiner_batch(5) == workloads.steiner_batch(5)
    assert workloads.steiner_batch(5) != workloads.steiner_batch(6)
    assert workloads.slab_wavenumber(5) == workloads.slab_wavenumber(5)
    assert workloads.slab_wavenumber(5) != workloads.slab_wavenumber(6)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    workloads.JunctionCli(5, a)
    workloads.JunctionCli(5, b)
    for name in ("steiner_batch.csv", "connect1d.json", "solve.json", "steiner.json", "partition.json"):
        text_a = (a / name).read_text().replace(str(a), "WORK")
        assert text_a == (b / name).read_text().replace(str(b), "WORK")


def test_steiner_batch_is_well_formed():
    rows = np.loadtxt(workloads.steiner_batch(3).splitlines()[1:], delimiter=",", ndmin=2)
    assert rows.shape == (workloads.STEINER_ROWS, 9)
    assert np.all(np.abs(rows[:, :6]) <= 1.0)
    assert np.all((rows[:, 6:] >= 0.5) & (rows[:, 6:] <= 2.0))
    v = rows[:, :6]
    area = 0.5 * np.abs((v[:, 2] - v[:, 0]) * (v[:, 5] - v[:, 1]) - (v[:, 4] - v[:, 0]) * (v[:, 3] - v[:, 1]))
    assert area.min() >= workloads.STEINER_MIN_AREA


def _weiszfeld_iterations(batch: str) -> list:
    from multiwell import partitions

    rows = np.loadtxt(batch.splitlines()[1:], delimiter=",", ndmin=2)
    its = []
    for r in rows:
        tri = partitions.WeightedTriangle(r[0:2], r[2:4], r[4:6], *r[6:])
        its.append(partitions.steiner_point(tri)[1]["iterations"])
    return its


def test_every_seed_costs_the_same_steiner_work():
    a, b = workloads.steiner_batch(1, rows=40), workloads.steiner_batch(2, rows=40)
    assert a != b
    assert sorted(_weiszfeld_iterations(a)) == sorted(_weiszfeld_iterations(b))


def test_slab_wavenumber_range():
    ks = [workloads.slab_wavenumber(s) for s in range(50)]
    assert min(ks) >= 0.9 and max(ks) <= 1.1


# ---------------------------------------------------------------------------
# Gates reject corrupted results


def _junction_result():
    steiner_rows = "index,px,py,residual,captured,converged,error\n" + "".join(
        f"{i},0.1,0.2,1e-12,{i % 2},1,\n" for i in range(workloads.STEINER_ROWS)
    )
    files = {
        "solve/report.json": json.dumps({"converged": True, "pde_residual": 9e-4}),
        "diagnose/diagnostics.json": json.dumps(
            {"junction_angles_deg": [119.0, 120.5, 120.5], "single_junction": True}
        ),
        "steiner/summary.json": json.dumps({"errors": 0, "instances": workloads.STEINER_ROWS}),
        "steiner/steiner.csv": steiner_rows,
        "partition/blowdown.csv": "scale,density,hausdorff_to_x_cone\n"
        "1,1.9,0.2\n0.5,1.9,0.1\n0.25,1.9,0.05\n0.125,1.9,0.025\n",
    }
    return workloads.OpResult(
        files={k: v.encode() for k, v in files.items()},
        data={"exit_codes": dict.fromkeys(workloads.CLI_COMMANDS, 0)},
    )


def _edit_json(result, name, **changes):
    doc = json.loads(result.files[name])
    doc.update(changes)
    result.files[name] = json.dumps(doc).encode()


def _replace(result, name, old, new):
    result.files[name] = result.files[name].replace(old.encode(), new.encode(), 1)


JUNCTION_CORRUPTIONS = {
    "exit code": lambda r: r.data["exit_codes"].update(steiner=2),
    "missed residual": lambda r: _edit_json(r, "solve/report.json", pde_residual=1.1e-3),
    "not converged": lambda r: _edit_json(r, "solve/report.json", converged=False),
    "angle": lambda r: _edit_json(r, "diagnose/diagnostics.json", junction_angles_deg=[116.9, 121.5, 121.6]),
    "two junctions": lambda r: _edit_json(r, "diagnose/diagnostics.json", single_junction=False),
    "steiner error": lambda r: _edit_json(r, "steiner/summary.json", errors=1),
    "steiner row": lambda r: _replace(r, "steiner/steiner.csv", "1,0.1,0.2,1e-12,1,1", "1,0.1,0.2,1e-3,0,0"),
    "blow-down bound": lambda r: _replace(r, "partition/blowdown.csv", "0.125,1.9,0.025", "0.125,1.9,0.06"),
    "blow-down order": lambda r: _replace(r, "partition/blowdown.csv", "0.25,1.9,0.05", "0.25,1.9,0.01"),
    "missing file": lambda r: r.files.pop("diagnose/diagnostics.json"),
}


def test_junction_gate_passes_good_result():
    assert workloads.check_junction(_junction_result(), 1e-3, 0.4) == []


@pytest.mark.parametrize("corruption", sorted(JUNCTION_CORRUPTIONS))
def test_junction_gate_rejects(corruption):
    r = _junction_result()
    JUNCTION_CORRUPTIONS[corruption](r)
    assert workloads.check_junction(r, 1e-3, 0.4)


def test_changed_output_byte_is_rejected():
    ref = _junction_result()
    now = copy.deepcopy(ref)
    assert workloads.compare_to_reference(now, ref) == []
    blob = bytearray(now.files["partition/blowdown.csv"])
    blob[-2] ^= 1
    now.files["partition/blowdown.csv"] = bytes(blob)
    assert workloads.compare_to_reference(now, ref) == ["partition/blowdown.csv differs from the first op's bytes"]


SLAB_GRID = fields.Grid(dim=2, half_width=5.0, points=41)


def _slab_result(decay=1.0):
    g = SLAB_GRID
    x = g.nodes[:, 0].reshape(g.shape)
    exact = np.tanh(x / np.sqrt(2.0))
    boundary = np.tanh(1.05 * x)
    R = g.half_width
    ax = g.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    dist = np.minimum.reduce([X + R, R - X, Y + R, R - Y])
    vals = exact + (boundary - exact) * np.exp(-decay * dist)
    edge = ~g.interior_mask.reshape(g.shape)
    vals[edge] = boundary[edge]
    result = workloads.OpResult(data={"values": vals[..., None], "residual": 5e-5, "converged": True})
    return result, boundary[..., None]


def test_slab_gate_passes_good_result():
    r, bnd = _slab_result()
    assert workloads.check_slab(r, SLAB_GRID, bnd, 1e-4) == []


@pytest.mark.parametrize("corruption", ["residual", "converged", "boundary", "slope"])
def test_slab_gate_rejects(corruption):
    r, bnd = _slab_result(decay=-1.0 if corruption == "slope" else 1.0)
    if corruption == "residual":
        r.data["residual"] = 1.5e-4
    elif corruption == "converged":
        r.data["converged"] = False
    elif corruption == "boundary":
        r.data["values"][0, 7, 0] = np.nextafter(r.data["values"][0, 7, 0], 2.0)
    assert workloads.check_slab(r, SLAB_GRID, bnd, 1e-4)


def _tetra_result():
    e = workloads.SPEC["tetra3d"]["reference"]["energy"]
    return workloads.OpResult(
        data={
            "energy": e,
            "energy_history": [e + 2.0, e + 1.0, e],
            "residual": 5e-4,
            "converged": True,
            "equivariance_before": 0.02,
            "equivariance_after": 0.03,
        }
    )


def test_tetra_gate_passes_good_result():
    assert workloads.check_tetra(_tetra_result(), 1e-3) == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("residual", 2e-3),
        ("converged", False),
        ("energy_history", [3.0, 1.0, 2.0]),
        ("equivariance_after", 0.041),
        ("energy", workloads.SPEC["tetra3d"]["reference"]["energy"] * (1 + 1e-3)),
    ],
)
def test_tetra_gate_rejects(key, value):
    r = _tetra_result()
    r.data[key] = value
    assert workloads.check_tetra(r, 1e-3)


# ---------------------------------------------------------------------------
# The runner


class SmallSlab(workloads.DirichletSlab):
    """The slab workload on a coarse grid, so a test can afford several ops."""

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.grid = fields.Grid(dim=2, half_width=5.0, points=41)
        self.boundary = fields.field_from_function(self.grid, self.data, 1).values


def test_traced_op_matches_untraced_op(tmp_path):
    w = SmallSlab(4, tmp_path)
    _, ref, ref_fails = run.run_op(w, None)
    assert ref_fails == []
    tracer = tracing.Tracer()
    _, traced, fails = run.run_op(w, ref, tracer)
    assert fails == []
    assert traced.counts == ref.counts and traced.digests() == ref.digests()
    m = tracing.layer_metrics(tracer.spans, wall=1.0)
    assert m["fields.minimize.iterations"] == ref.counts["minimize.iterations"]
    assert m["groups.project.calls"] > 0


def test_run_op_flags_changed_counts(tmp_path):
    w = SmallSlab(4, tmp_path)
    _, ref, _ = run.run_op(w, None)
    ref.counts["minimize.iterations"] += 1
    _, _, fails = run.run_op(w, ref)
    assert any("counts" in f for f in fails)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 0)
    xs = list(range(1, 31))
    assert run.tail(xs) == (20, 10)


def test_missing_sources_exit_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "tetra3d", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
