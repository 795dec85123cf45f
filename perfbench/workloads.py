"""The benchmark's reference workloads: seeded inputs, one op each, and the
per-op correctness gates.

``workloads.json`` records each workload's sizes, what its seed draws, why
it was chosen, and the tetra3d energy reference.  A workload object is built
once per process (the set-up: catalog, groups, generated inputs) and then
runs ``op()`` repeatedly.  Every op returns an
``OpResult``; ``check(result)`` returns the list of failed gates (empty when
the op is correct).  ``compare_to_reference`` is the determinism gate: every
op must reproduce the first op's output bytes and work counts exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from multiwell import cli, connect, fields, groups, partitions, potentials

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text())

STEINER_ROWS = SPEC["junction_cli"]["sizes"]["steiner_rows"]
STEINER_MIN_AREA = 0.01  # rows with a smaller triangle area are redrawn
STEINER_HEADER = "Ax,Ay,Bx,By,Cx,Cy,e12,e13,e23"
CLI_COMMANDS = ("connect1d", "solve", "diagnose", "steiner", "partition")


@dataclass
class OpResult:
    """What one op produced: output bytes by name and exact work counts."""

    files: dict = field(default_factory=dict)  # name -> bytes
    counts: dict = field(default_factory=dict)  # name -> int
    data: dict = field(default_factory=dict)  # workload-specific values for the gates

    def digests(self) -> dict:
        return {k: hashlib.sha256(v).hexdigest() for k, v in sorted(self.files.items())}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def compare_to_reference(result: OpResult, reference: OpResult | None) -> list:
    """Failures of the determinism gate: an op must reproduce the first op's
    output bytes and work counts exactly."""
    if reference is None:
        return []
    if result.counts != reference.counts:
        return [f"counts {result.counts} differ from the first op's {reference.counts}"]
    ref, now = reference.digests(), result.digests()
    if ref.keys() != now.keys():
        return [f"output files differ from the first op's: {sorted(now)} vs {sorted(ref)}"]
    return [f"{k} differs from the first op's bytes" for k in ref if ref[k] != now[k]]


# ---------------------------------------------------------------------------
# Seeded inputs


def uniform_triangles(rows: int) -> np.ndarray:
    """One fixed draw of ``rows`` weighted triangles as (Ax, Ay, Bx, By, Cx,
    Cy, e12, e13, e23): vertices uniform in [-1, 1]^2, weights uniform in
    [0.5, 2].  Triangles thinner than STEINER_MIN_AREA are redrawn, so every
    row is well formed."""
    rng = np.random.default_rng([0, 1])
    out = []
    while len(out) < rows:
        v = rng.uniform(-1.0, 1.0, 6)
        w = rng.uniform(0.5, 2.0, 3)
        area = 0.5 * abs((v[2] - v[0]) * (v[5] - v[1]) - (v[4] - v[0]) * (v[3] - v[1]))
        if area >= STEINER_MIN_AREA:
            out.append(np.concatenate([v, w]))
    return np.array(out)


def steiner_batch(seed: int, rows: int = STEINER_ROWS) -> str:
    """CSV text of the Steiner batch: the fixed draw ``uniform_triangles(rows)``
    with its rows shuffled and each row mapped by a seeded symmetry of the
    square (sign flips and an x-y swap, exact in floating point).  Weiszfeld
    iteration counts are invariant under these maps, so every seed's batch
    costs the same work: a few near-capture rows take most of the
    iterations, and fresh draws per seed varied the batch's total fourfold."""
    rng = np.random.default_rng([seed, 1])
    tri = uniform_triangles(rows)[rng.permutation(rows)]
    xy = tri[:, :6].reshape(rows, 3, 2)
    xy *= rng.choice([-1.0, 1.0], size=(rows, 1, 2))
    swap = rng.integers(0, 2, rows).astype(bool)
    xy[swap] = xy[swap][..., ::-1]
    tri[:, :6] = xy.reshape(rows, 6)
    lines = [STEINER_HEADER] + [",".join(_fmt(x) for x in row) for row in tri]
    return "\n".join(lines) + "\n"


def slab_wavenumber(seed: int) -> float:
    """The k of the slab's boundary data tanh(k x1), uniform in [0.9, 1.1]."""
    return float(np.random.default_rng([seed, 2]).uniform(0.9, 1.1))


# ---------------------------------------------------------------------------
# junction_cli: the headline experiment through the command line


def junction_configs(work: Path) -> dict:
    """The five CLI configs of one junction_cli op, keyed by subcommand."""
    out = work / "out"
    sz = SPEC["junction_cli"]["sizes"]
    return {
        "connect1d": {"potential": sz["potential"], **sz["connection"]},
        "solve": {
            "potential": sz["potential"],
            "group": sz["group"],
            "grid": sz["grid"],
            "solver": {"residual_target": sz["residual_target"], "max_iter": 60000},
            "connection": sz["connection"],
        },
        "diagnose": {
            "potential": sz["potential"],
            "field": {
                "csv": str(out / "solve" / "field.csv"),
                "meta": str(out / "solve" / "field_meta.json"),
            },
            "angle_radius": 5.0,
        },
        "steiner": {"batch": str(work / "steiner_batch.csv")},
        "partition": {
            "partition": partitions.partition_to_json(
                partitions.double_junction(sz["partition"]["separation"])
            ),
            "blowdown_reference": sz["partition"]["blowdown_reference"],
        },
    }


class JunctionCli:
    """connect1d, solve, diagnose, steiner and partition run in process
    through ``multiwell.cli.main``; all outputs are compared byte for byte
    with the first op."""

    name = "junction_cli"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        (work / "steiner_batch.csv").write_text(steiner_batch(seed))
        self.config_paths = {}
        for cmd, cfg in junction_configs(work).items():
            path = work / f"{cmd}.json"
            path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
            self.config_paths[cmd] = path
        self.out = work / "out"

    def op(self) -> OpResult:
        shutil.rmtree(self.out, ignore_errors=True)
        codes = {}
        for cmd in CLI_COMMANDS:
            argv = [cmd, "--config", str(self.config_paths[cmd]),
                    "--out", str(self.out / cmd), "--seed", str(self.seed)]
            codes[cmd] = cli.main(argv)
        result = OpResult(data={"exit_codes": codes})
        for path in sorted(self.out.rglob("*")):
            if path.is_file():
                result.files[str(path.relative_to(self.out))] = path.read_bytes()
        solve = json.loads(result.files.get("solve/report.json", b"{}"))
        result.counts["solve.iterations"] = int(solve.get("iterations", -1))
        return result

    def check(self, result: OpResult) -> list:
        sz = SPEC[self.name]["sizes"]
        return check_junction(result, sz["residual_target"], sz["partition"]["separation"])


def _csv_rows(blob: bytes) -> list:
    return list(csv.DictReader(io.StringIO(blob.decode())))


def check_junction(result: OpResult, target: float, separation: float) -> list:
    fails = [f"{c} exited {rc}" for c, rc in result.data["exit_codes"].items() if rc != 0]
    try:
        solve = json.loads(result.files["solve/report.json"])
        if not (solve["converged"] and solve["pde_residual"] <= target):
            fails.append(f"solve residual {solve['pde_residual']:.3e} above {target:g}")
        diag = json.loads(result.files["diagnose/diagnostics.json"])
        angles = diag["junction_angles_deg"]
        if len(angles) != 3 or any(abs(a - 120.0) > 3.0 for a in angles):
            fails.append(f"junction angles {angles} not within 3 deg of 120")
        if not diag["single_junction"]:
            fails.append("diagnose found more than one junction")
        summary = json.loads(result.files["steiner/summary.json"])
        rows = _csv_rows(result.files["steiner/steiner.csv"])
        if summary["errors"] != 0 or summary["instances"] != STEINER_ROWS or len(rows) != STEINER_ROWS:
            fails.append(f"steiner: {summary['errors']} errors in {summary['instances']} rows")
        if any(r["converged"] != "1" and r["captured"] != "1" for r in rows):
            fails.append("steiner: a row is neither converged nor captured")
        blow = _csv_rows(result.files["partition/blowdown.csv"])
        dists = [float(r["hausdorff_to_x_cone"]) for r in blow]
        if any(d > separation * float(r["scale"]) + 5e-3 for d, r in zip(dists, blow)):
            fails.append(f"blow-down distances {dists} above {separation} mu + 5e-3")
        if len(dists) < 2 or any(b >= a for a, b in zip(dists, dists[1:])):
            fails.append(f"blow-down distances {dists} not decreasing")
    except (KeyError, ValueError, TypeError) as e:
        fails.append(f"missing or malformed output: {e!r}")
    return fails


# ---------------------------------------------------------------------------
# dirichlet_slab: criterion 6's wrong-width relaxation on the double well


SLAB_BANDS = np.linspace(0.1, 2.4, 9)


class DirichletSlab:
    """Boundary data tanh(k x1) relaxes to the 1D profile tanh(x1 / sqrt 2)."""

    name = "dirichlet_slab"

    def __init__(self, seed: int, work: Path):
        self.sizes = SPEC[self.name]["sizes"]
        self.k = slab_wavenumber(seed)
        self.potential = potentials.get_potential(self.sizes["potential"])
        self.grid = fields.Grid(dim=2, **self.sizes["grid"])
        self.boundary = fields.field_from_function(self.grid, self.data, 1).values

    def data(self, pts):
        return np.tanh(self.k * pts[:, 0])[:, None]

    def op(self) -> OpResult:
        f0 = fields.field_from_function(self.grid, self.data, 1)
        sz = self.sizes
        opts = fields.SolveOptions(
            residual_target=sz["residual_target"],
            max_iter=40_000,
            k_sym=sz["k_sym"],
            check_every=sz["check_every"],
        )
        res = fields.solve_dirichlet(f0, self.potential, self.data, opts=opts)
        return OpResult(
            files={"field": res.field.values.tobytes()},
            counts={"minimize.iterations": res.iterations},
            data={"values": res.field.values, "residual": res.residual, "converged": res.converged},
        )

    def check(self, result: OpResult) -> list:
        return check_slab(result, self.grid, self.boundary, self.sizes["residual_target"])


def band_slope(values: np.ndarray, grid: fields.Grid) -> float:
    """Slope of log(sup error to the 1D profile) against distance to the
    boundary, over the bands of criterion 6."""
    exact = np.tanh(grid.nodes[:, 0] / np.sqrt(2.0)).reshape(grid.shape)
    err = np.abs(values[..., 0] - exact)
    ax = grid.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    R = grid.half_width
    dist = np.minimum.reduce([X + R, R - X, Y + R, R - Y])
    lo, hi = SLAB_BANDS[:-1], SLAB_BANDS[1:]
    sups = [float(err[(dist >= a) & (dist < b)].max()) for a, b in zip(lo, hi)]
    return float(np.polyfit((lo + hi) / 2, np.log(sups), 1)[0])


def check_slab(result: OpResult, grid: fields.Grid, boundary: np.ndarray, target: float) -> list:
    fails = []
    d = result.data
    if not (d["converged"] and d["residual"] <= target):
        fails.append(f"slab residual {d['residual']:.3e} above {target:g}")
    edge = ~grid.interior_mask.reshape(grid.shape)
    if not np.array_equal(d["values"][edge], boundary[edge]):
        fails.append("slab boundary values moved")
    slope = band_slope(d["values"], grid)
    if not slope < 0:
        fails.append(f"slab band-wise error slope {slope:.3f} is not negative")
    return fails


# ---------------------------------------------------------------------------
# tetra3d: the tetrahedral quadruple-well junction in 3D


class Tetra3d:
    """Connection, equivariant initial data and descent on the 33^3 grid."""

    name = "tetra3d"

    def __init__(self, seed: int, work: Path):
        self.sizes = SPEC[self.name]["sizes"]
        self.potential = potentials.get_potential(self.sizes["potential"])
        self.group = groups.get_group(self.sizes["group"])
        self.region_map = groups.build_region_map(self.group, self.potential.wells[0])
        self.grid = fields.Grid(dim=3, **self.sizes["grid"])

    def op(self) -> OpResult:
        rm, sz = self.region_map, self.sizes
        conn = sz["connection"]
        prof = connect.solve_connection(
            self.potential, rm.wells[1], rm.wells[0], conn["half_length"], conn["intervals"], tol=1e-9
        )
        u0 = fields.initial_guess(self.group, rm, prof, self.grid)
        opts = fields.SolveOptions(
            residual_target=sz["residual_target"], max_iter=20_000, check_every=sz["check_every"]
        )
        res = fields.minimize(u0, self.potential, symmetry=self.group, opts=opts)
        return OpResult(
            files={"field": res.field.values.tobytes()},
            counts={"minimize.iterations": res.iterations},
            data={
                "energy": res.energy,
                "energy_history": list(res.energy_history),
                "residual": res.residual,
                "converged": res.converged,
                "equivariance_before": res.equivariance_before,
                "equivariance_after": res.equivariance_after,
            },
        )

    def check(self, result: OpResult) -> list:
        return check_tetra(result, self.sizes["residual_target"])


def check_tetra(result: OpResult, target: float) -> list:
    d = result.data
    ref = SPEC["tetra3d"]["reference"]
    fails = []
    if not (d["converged"] and d["residual"] <= target):
        fails.append(f"tetra residual {d['residual']:.3e} above {target:g}")
    hist = np.asarray(d["energy_history"])
    if np.any(np.diff(hist) > ref["energy_increase_tol"]):
        fails.append(f"tetra energy rose by {np.diff(hist).max():.3e}")
    if not d["equivariance_after"] <= 2.0 * d["equivariance_before"]:
        fails.append(
            f"tetra equivariance {d['equivariance_after']:.3e} above 2x the input's "
            f"{d['equivariance_before']:.3e}"
        )
    rel = abs(d["energy"] - ref["energy"]) / abs(ref["energy"])
    if not rel <= ref["energy_rel_tol"]:
        fails.append(f"tetra energy {d['energy']!r} off the reference by {rel:.2e} (relative)")
    return fails


WORKLOADS = {w.name: w for w in (JunctionCli, DirichletSlab, Tetra3d)}
