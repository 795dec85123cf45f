"""Batch command-line front end: JSON configs in, CSV/JSON reports out.

Subcommands: connect1d, solve, diagnose, steiner, partition.  Runs are
deterministic: identical config and seed produce byte-identical outputs
(floats are written with 17 significant digits), and every report embeds
the config hash, seed, and tool version.  Exit codes: 0 success, 1 usage
or config error, 2 numerical failure.  Each subcommand reads its config by
its table in ``TABLES``; a key outside the table is a usage error.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import connect
from . import diagnostics
from . import fields
from . import groups
from . import partitions
from . import potentials

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def _write_report(path, config, seed, payload: dict):
    report = {
        "tool_version": __version__,
        "config_hash": _config_hash(config),
        "seed": seed,
    }
    report.update(payload)
    fields.write_json(path, report)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


REQUIRED = object()  # the default of a key that a config must set


def _int(value) -> int:
    """A non-negative integer; booleans and non-integral numbers are rejected."""
    if not potentials._integral(value) or value < 0:
        raise ValueError("must be a non-negative integer")
    return int(value)


def _floats(value) -> np.ndarray:
    """A number or a (nested) list of numbers as a float array, at least 1-D."""
    return np.atleast_1d(np.asarray(value, dtype=np.float64))


def _positive(value) -> float:
    x = float(value)
    if not 0 < x < np.inf:
        raise ValueError("must be positive and finite")
    return x


def _radii(value, order: int = 0) -> np.ndarray:
    """A non-empty 1-D list of positive finite numbers, strictly increasing
    for ``order`` 1 and strictly decreasing for ``order`` -1."""
    r = _floats(value)
    if r.ndim != 1 or not r.size or not np.all((0 < r) & (r < np.inf)):
        raise ValueError("must be a non-empty list of positive finite numbers")
    if order and not np.all(order * np.diff(r) > 0):
        raise ValueError("must be strictly " + ("increasing" if order > 0 else "decreasing"))
    return r


def _strip(value) -> tuple:
    lo_hi = _floats(value)
    if lo_hi.shape != (2,) or not lo_hi[0] < lo_hi[1]:
        raise ValueError("must be two numbers lo < hi")
    return tuple(lo_hi)


def _point(value) -> np.ndarray:
    """A Steiner triangle vertex [x, y].  Only the shape is checked: a vertex
    that ``partitions.triangle_errors`` rejects, nan included, is an error
    row, as in a batch."""
    p = _floats(value)
    if p.shape != (2,):
        raise ValueError("must be a point [x, y]")
    return p


def _wells(value) -> tuple:
    a_minus, a_plus = (_floats(w) for w in value)
    return a_minus, a_plus


def _path(value) -> str:
    if not isinstance(value, str) or not value:
        raise TypeError("must be a non-empty path string")
    return value


def _potential(value) -> potentials.PotentialSpec:
    """A catalog name, or a custom potential inline or as the path of its JSON file."""
    if isinstance(value, dict) or (isinstance(value, str) and value.endswith(".json")):
        return potentials.potential_from_json(value)
    return potentials.get_potential(value)


def _group(value) -> groups.ReflectionGroup:
    if not isinstance(value, str):
        raise TypeError("must be a group name")
    return groups.get_group(value)


def _partition(value) -> partitions.PolygonalPartition:
    """An inline partition, or the path of its JSON file."""
    if isinstance(value, str):
        with open(value) as fh:
            value = json.load(fh)
    if not isinstance(value, dict):
        raise TypeError("must be a partition object or the path of one")
    return partitions.partition_from_json(value)


def _x_cone(value) -> str:
    if value != "x_cone":
        raise ValueError("the only reference is 'x_cone'")
    return value


# One table per subcommand: each key maps to (converter, default) and a nested
# dict is a section.  A default of None that depends on the loaded field is
# filled in by the command.
TABLES = {
    "connect1d": {
        "potential": (_potential, REQUIRED),
        "half_length": (float, 10.0),
        "intervals": (_int, 2000),
        "tol": (float, 1e-8),
        "wells": (_wells, None),
    },
    "solve": {
        "potential": (_potential, REQUIRED),
        "group": (_group, REQUIRED),
        "grid": {"half_width": (float, 8.0), "points": (_int, 161)},
        "solver": {"max_iter": (_int, 100_000), "residual_target": (_positive, 1e-3)},
        "connection": {"half_length": (float, 6.0), "intervals": (_int, 1200), "tol": (float, 1e-9)},
        "resume": {"field": (_path, REQUIRED), "meta": (_path, REQUIRED)},
    },
    "diagnose": {
        "potential": (_potential, REQUIRED),
        "field": {"csv": (_path, REQUIRED), "meta": (_path, REQUIRED)},
        "monotonicity_radii": (lambda v: _radii(v, 1), None),
        "flux_radii": (_radii, None),
        "hamiltonian_strip": (_strip, None),
        "angle_radius": (_positive, None),
    },
    "steiner": {
        "batch": (_path, None),
        "triangle": {"A": (_point, REQUIRED), "B": (_point, REQUIRED), "C": (_point, REQUIRED),
                     "e12": (float, REQUIRED), "e13": (float, REQUIRED), "e23": (float, REQUIRED)},
    },
    "partition": {
        "partition": (_partition, REQUIRED),
        "tensions": (partitions.TensionMatrix, None),
        "center": (lambda v: partitions._finite_point(v, "center"), np.zeros(2)),
        "radii": (_radii, np.linspace(0.2, 2.0, 10)),
        "blowdown_scales": (lambda v: _radii(v, -1), np.array([1.0, 0.5, 0.25, 0.125])),
        "blowdown_reference": (_x_cone, None),
    },
}


def _read(section, table: dict, where: str) -> dict:
    """Every key of ``table`` read from ``section``: converted, or its default
    when absent.  A section absent from the config reads as its defaults, or
    as None when it has a required key.  A key outside the table, a value its
    converter rejects (or a path it cannot open) and a missing required key
    are usage errors."""
    if not isinstance(section, dict):
        raise UsageError(f"config entry {where!r} must be a JSON object")
    for key in section:
        if key not in table:
            hint = difflib.get_close_matches(key, table, n=1)
            raise UsageError(f"{where} key {key!r} is unknown" + (f"; did you mean {hint[0]!r}?" if hint else ""))
    out = {}
    for key, spec in table.items():
        if isinstance(spec, dict):
            skip = key not in section and any(default is REQUIRED for _, default in spec.values())
            out[key] = None if skip else _read(section.get(key, {}), spec, key)
        elif key in section:
            value = section[key]
            try:
                out[key] = spec[0](value)
            except (ValueError, TypeError, LookupError, OSError) as e:  # OSError: an unreadable path
                raise UsageError(f"bad value for {key!r}: {value!r} ({e})")
        elif spec[1] is REQUIRED:
            raise UsageError(f"{where} needs a {key!r} entry")
        else:
            out[key] = spec[1]
    return out


def _load_config(args) -> tuple:
    """The config as loaded, and as read by its subcommand's table."""
    if args.config is None:
        raise UsageError("--config is required")
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config not found: {args.config}")
    except json.JSONDecodeError as e:
        raise UsageError(f"config is not valid JSON: {e}")
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    return config, _read(config, TABLES[args.command], args.command)


def _out_dir(args) -> str:
    """The --out directory, made just before the first write so that a rejected config leaves none."""
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------


def cmd_connect1d(args) -> int:
    config, cfg = _load_config(args)
    pot = cfg["potential"]
    if cfg["wells"] is None and pot.wells.shape[0] < 2:
        raise UsageError("potential has fewer than two wells; specify 'wells'")
    a_minus, a_plus = pot.wells[:2] if cfg["wells"] is None else cfg["wells"]
    try:
        prof = connect.solve_connection(pot, a_minus, a_plus, cfg["half_length"], cfg["intervals"], cfg["tol"])
    except ValueError as e:
        raise UsageError(str(e))
    out = _out_dir(args)
    connect.save_profile(prof, os.path.join(out, "profile.csv"))
    sigma = connect.action(prof)
    payload = {
        "potential": pot.name,
        "action_sigma": sigma,
        "collocation_residual": prof.residual,
        "converged": prof.converged,
        "equipartition_residual": connect.equipartition_residual(prof),
        "hyperbolicity_gap": connect.hyperbolicity_gap(prof),
        "half_length": cfg["half_length"],
        "intervals": cfg["intervals"],
    }
    try:
        K, k = connect.tail_decay_rate(prof)
        payload["decay_K"] = K
        payload["decay_k"] = k
    except connect.ConnectionError:
        payload["decay_K"] = None
        payload["decay_k"] = None
    _write_report(os.path.join(out, "report.json"), config, args.seed, payload)
    if not prof.converged:
        print(f"solver did not reach tolerance: residual {prof.residual:.3e}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _partner(wells: np.ndarray) -> np.ndarray:
    """The well nearest wells[0], the lowest index among those within
    ``groups.POINT_TOL`` of the nearest distance: a neighbour of the base
    well across one mirror of the group."""
    d = np.linalg.norm(wells[1:] - wells[0], axis=1)
    return wells[1 + np.argmax(d <= d.min() + groups.POINT_TOL)]


def cmd_solve(args) -> int:
    config, cfg = _load_config(args)
    pot, grp = cfg["potential"], cfg["group"]
    if grp.dimension != pot.m or pot.m not in (2, 3):
        raise UsageError(
            f"need matching dimensions n = m in {{2, 3}}; group acts on R^{grp.dimension}, "
            f"potential has m = {pot.m}"
        )
    if pot.wells.shape[0] < 2:
        raise UsageError(f"potential {pot.name!r} declares fewer than two wells")
    try:
        grid = fields.Grid(dim=grp.dimension, **cfg["grid"])
    except ValueError as e:
        raise UsageError(f"bad grid: {e}")
    opts = fields.SolveOptions(**cfg["solver"])
    rm = groups.build_region_map(grp, pot.wells[0])
    if max(abs(pot.value(w)) for w in rm.wells) > connect.WELL_TOL:
        raise UsageError(
            f"group {grp.name!r} carries the base well of potential {pot.name!r} "
            "onto points that are not wells of the potential"
        )
    if rm.wells.shape[0] < 2:
        raise UsageError(f"group {grp.name!r} fixes the base well of potential {pot.name!r}: no other well to connect")
    resume = cfg["resume"]
    if resume is not None:
        try:
            u0 = fields.load_field(resume["field"], resume["meta"])
        except (OSError, KeyError, TypeError, ValueError) as e:
            raise UsageError(f"cannot load resume field: {e}")
        if (u0.grid.dim, u0.m) != (grp.dimension, pot.m):
            raise UsageError(
                f"resume field has dim {u0.grid.dim} and m {u0.m}; "
                f"group and potential need {grp.dimension} and {pot.m}"
            )
    else:
        try:
            prof = connect.solve_connection(pot, _partner(rm.wells), rm.wells[0], **cfg["connection"])
            u0 = fields.initial_guess(grp, rm, prof, grid)
        except ValueError as e:  # also wells that no group reflection swaps
            raise UsageError(f"bad connection: {e}")
    try:
        result = fields.minimize(u0, pot, symmetry=grp, opts=opts)
    except ValueError as e:  # a resume field whose boundary the action would reset
        raise UsageError(f"bad start field: {e}")
    out = _out_dir(args)
    fields.save_field(
        result.field,
        os.path.join(out, "field.csv"),
        os.path.join(out, "field_meta.json"),
        extra_meta={"potential": pot.name, "group": grp.name},
    )
    payload = {
        "potential": pot.name,
        "group": grp.name,
        "energy": result.energy,
        "pde_residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "method": result.method,
        "stop_reason": result.stop_reason,
        "equivariance_before": result.equivariance_before,
        "equivariance_after": result.equivariance_after,
        "positivity_violation": fields.positivity_violation(result.field, grp.wall_normals),
    }
    _write_report(os.path.join(out, "report.json"), config, args.seed, payload)
    if not result.converged:
        print(f"solver did not converge: residual {result.residual:.3e}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_diagnose(args) -> int:
    config, cfg = _load_config(args)
    pot, fcfg = cfg["potential"], cfg["field"]
    if fcfg is None:
        raise UsageError("config needs 'field': {'csv': ..., 'meta': ...}")
    try:
        field = fields.load_field(fcfg["csv"], fcfg["meta"])
    except (OSError, KeyError, ValueError) as e:
        raise UsageError(f"cannot load field: {e}")
    if pot.m != field.m:
        raise UsageError(f"'potential' {pot.name!r} takes m = {pot.m} values; the field has m = {field.m}")
    hw = field.grid.half_width
    radii = cfg["monotonicity_radii"]
    if radii is None:
        radii = np.linspace(0.1 * hw, 0.9 * hw, 10)
    elif radii[-1] > hw:
        raise UsageError(f"bad value for 'monotonicity_radii': {radii.tolist()} (must be at most the half-width {hw:g})")
    flux_radii = [0.3 * hw, 0.5 * hw] if cfg["flux_radii"] is None else cfg["flux_radii"]
    angle_radius = 0.6 * hw if cfg["angle_radius"] is None else cfg["angle_radius"]
    h = field.grid.spacing
    payload: dict = {
        "potential": pot.name,
        # tolerances the entries are judged against at this resolution
        "tolerances": {
            "divergence_residual": 10.0 * h**2,
            "modica_deficit": h**2,
            "monotonicity_violation": 1e-6,
            "hamiltonian_relative_variance": 1e-3,
            "flux_component": 1e-3,
            "junction_angle_deg": 3.0,
        },
    }
    se = diagnostics.stress_energy(field, pot)
    payload["divergence_residual"] = diagnostics.divergence_residual(se)
    payload["modica_deficit"] = diagnostics.modica_deficit(se)
    mono = diagnostics.monotonicity_profile(se, np.zeros(field.grid.dim), radii)
    payload["monotonicity_violation"] = mono["max_relative_violation"]
    out = _out_dir(args)
    _write_csv(
        os.path.join(out, "monotonicity.csv"),
        ["radius", "energy", "ratio"],
        zip(mono["radii"], mono["energies"], mono["ratios"]),
    )
    try:
        payload["flux"] = [diagnostics.flux_balance(se, float(r)).tolist() for r in flux_radii]
    except diagnostics.DiagnosticsError as e:
        payload["flux"] = None
        payload["flux_flag"] = str(e)
    del se  # free the record's arrays before the checks that read the field itself
    if field.grid.dim == 2:
        try:
            ham = diagnostics.hamiltonian_variance(field, pot, strip=cfg["hamiltonian_strip"])
            payload["hamiltonian_relative_variance"] = ham["relative_variance"]
            payload["hamiltonian_precondition_met"] = ham["decay_precondition_met"]
            _write_csv(
                os.path.join(out, "hamiltonian.csv"),
                ["x2", "integral"],
                zip(ham["x2"], ham["integrals"]),
            )
        except diagnostics.DiagnosticsError as e:
            payload["hamiltonian_flag"] = str(e)
        if pot.wells.shape[0] >= 3:
            try:
                ang = diagnostics.junction_angles(field, pot.wells, r0=angle_radius)
                payload["junction_angles_deg"] = np.degrees(ang["angles"]).tolist()
                payload["junction_center"] = ang["center"].tolist()
                payload["single_junction"] = ang["single_junction"]
            except diagnostics.DiagnosticsError as e:
                payload["junction_flag"] = str(e)
    _write_report(os.path.join(out, "diagnostics.json"), config, args.seed, payload)
    return EXIT_OK


STEINER_HEADER = "Ax,Ay,Bx,By,Cx,Cy,e12,e13,e23"


def _steiner_rows(cfg) -> list:
    """STEINER_HEADER rows: CSV cells of the batch, or the single triangle.
    A batch whose first line is not STEINER_HEADER is a usage error: it
    would be dropped as the header, taking a row with it."""
    if cfg["batch"] is not None:
        try:
            with open(cfg["batch"]) as fh:
                lines = fh.read().splitlines()
        except OSError as e:
            raise UsageError(f"cannot read batch: {e}")
        if not lines:
            raise UsageError(f"batch {cfg['batch']} is empty; line 1 must be the header {STEINER_HEADER}")
        if lines[0].strip() != STEINER_HEADER:
            raise UsageError(f"batch {cfg['batch']} line 1 is {lines[0]!r}; it must be the header {STEINER_HEADER}")
        stripped = (line.split("#")[0].strip() for line in lines[1:])
        return [line.split(",") for line in stripped if line]
    t = cfg["triangle"]
    if t is None:
        raise UsageError("steiner config needs 'batch' (CSV path) or 'triangle'")
    return [[*t["A"], *t["B"], *t["C"], t["e12"], t["e13"], t["e23"]]]


def cmd_steiner(args) -> int:
    config, cfg = _load_config(args)
    rows = _steiner_rows(cfg)
    cells = np.full((len(rows), 9), np.nan)
    parse_errors = [""] * len(rows)
    for i, row in enumerate(rows):
        try:
            if len(row) != 9:
                raise ValueError(f"expected 9 columns; got {len(row)}")
            cells[i] = [float(c) for c in row]
        except ValueError as e:
            parse_errors[i] = str(e)
    vertices, weights = cells[:, :6].reshape(-1, 3, 2), cells[:, 6:]
    # a parse error stands before the triangle's own: its cells read as nan
    errors = [p or t for p, t in zip(parse_errors, partitions.triangle_errors(vertices, weights).tolist())]
    ok = [i for i, e in enumerate(errors) if not e]
    P, vertex, residual = partitions.steiner_points(vertices[ok], weights[ok])
    out_rows = [[str(i), "", "", "", "", "", e] for i, e in enumerate(errors)]
    for i, (px, py), r, v in zip(ok, P.tolist(), residual.tolist(), vertex.tolist()):
        out_rows[i] = [str(i), px, py, r, "1" if v >= 0 else "0", "1", ""]
    n_err = len(rows) - len(ok)
    out = _out_dir(args)
    _write_csv(
        os.path.join(out, "steiner.csv"),
        ["index", "px", "py", "residual", "captured", "converged", "error"],
        out_rows,
    )
    _write_report(
        os.path.join(out, "summary.json"),
        config,
        args.seed,
        {"instances": len(rows), "errors": n_err},
    )
    return EXIT_OK


def cmd_partition(args) -> int:
    config, cfg = _load_config(args)
    part, tensions = cfg["partition"], cfg["tensions"]
    if tensions is None:
        tensions = partitions.TensionMatrix(np.ones((part.phases, part.phases)) - np.eye(part.phases))
    if tensions.phases < part.phases:
        raise UsageError(f"tension matrix is {tensions.phases}x{tensions.phases} for {part.phases} phases")
    center, radii, scales = cfg["center"], cfg["radii"], cfg["blowdown_scales"]
    rows = [[float(r), *partitions.density_and_energy(part, tensions, center, float(r))] for r in radii]
    out = _out_dir(args)
    _write_csv(os.path.join(out, "density.csv"), ["radius", "density", "energy"], rows)
    seq = partitions.blow_down(part, center, scales)
    unit = partitions.disk(center, 1.0)
    ref = cfg["blowdown_reference"]
    rows = []
    for mu, q in zip(scales, seq):
        row = [float(mu), partitions.density(q, center, 1.0)]
        if ref == "x_cone":
            row.append(partitions.hausdorff_distance(q, partitions.x_cone(), unit))
        rows.append(row)
    header = ["scale", "density"] + (["hausdorff_to_x_cone"] if ref == "x_cone" else [])
    _write_csv(os.path.join(out, "blowdown.csv"), header, rows)
    _write_report(
        os.path.join(out, "report.json"),
        config,
        args.seed,
        {
            "phases": part.phases,
            "elements": len(part.elements),
            "strictly_metric": tensions.is_strictly_metric(),
        },
    )
    return EXIT_OK


COMMANDS = {
    "connect1d": cmd_connect1d,
    "solve": cmd_solve,
    "diagnose": cmd_diagnose,
    "steiner": cmd_steiner,
    "partition": cmd_partition,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="multiwell",
        description="Multi-well phase-transition runs: connections, junction fields, diagnostics, partitions.",
    )
    p.add_argument("command", choices=sorted(COMMANDS), help="subcommand to run")
    p.add_argument("--config", required=False, help="JSON config path")
    p.add_argument("--out", default=None, help="output directory (created if missing)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed recorded in reports")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    np.random.seed(args.seed % 2**32)
    try:
        return COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (fields.SolveError, connect.ConnectionError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
