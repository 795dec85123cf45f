"""Batch command-line front end: JSON configs in, CSV/JSON reports out.

Subcommands: connect1d, solve, diagnose, steiner, partition.  Runs are
deterministic: identical config and seed produce byte-identical outputs
(floats are written with 17 significant digits), and every report embeds
the config hash, seed, and tool version.  Exit codes: 0 success, 1 usage
or config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
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


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def _config_hash(config: dict) -> str:
    canon = json.dumps(_jsonify(config), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write_report(path, config, seed, payload: dict):
    report = {
        "tool_version": __version__,
        "config_hash": _config_hash(config),
        "seed": seed,
    }
    report.update(payload)
    with open(path, "w") as fh:
        json.dump(_jsonify(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


def _load_config(args) -> dict:
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
    return config


def _section(config: dict, key: str) -> dict:
    section = config.get(key, {})
    if not isinstance(section, dict):
        raise UsageError(f"config entry {key!r} must be a JSON object")
    return section


def _param(section: dict, key: str, default, convert=float):
    """``convert`` applied to ``section[key]`` (``default`` when absent); a
    value it rejects with ValueError or TypeError is a usage error."""
    value = section.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad value for {key!r}: {value!r} ({e})")


def _positive_int(value) -> int:
    n = int(value)
    if n < 1:
        raise ValueError("must be a positive integer")
    return n


def _floats(value) -> np.ndarray:
    """A number or a (nested) list of numbers as a float array, at least 1-D."""
    return np.atleast_1d(np.asarray(value, dtype=np.float64))


def _positive(value) -> float:
    x = float(value)
    if not x > 0:
        raise ValueError("must be positive")
    return x


def _radii(value, half_width: float | None = None) -> np.ndarray:
    """A non-empty 1-D list of positive radii; ball radii (``half_width``
    given) are also strictly increasing and at most the half-width."""
    r = _floats(value)
    if r.ndim != 1 or not r.size or not np.all(r > 0):
        raise ValueError("must be a non-empty list of positive radii")
    if half_width is not None and (np.any(np.diff(r) <= 0) or r[-1] > half_width):
        raise ValueError(f"must be strictly increasing and at most the half-width {half_width:g}")
    return r


def _strip(value) -> tuple:
    lo_hi = _floats(value)
    if lo_hi.shape != (2,) or not lo_hi[0] < lo_hi[1]:
        raise ValueError("must be two numbers lo < hi")
    return tuple(lo_hi)


def _resolve_potential(config) -> potentials.PotentialSpec:
    if "potential" not in config:
        raise UsageError("config needs a 'potential' entry")
    pot = config["potential"]
    if isinstance(pot, dict) or (isinstance(pot, str) and pot.endswith(".json")):
        try:
            return potentials.potential_from_json(pot)
        except (OSError, KeyError, ValueError) as e:
            raise UsageError(f"bad custom potential: {e}")
    try:
        return potentials.get_potential(pot)
    except KeyError as e:
        raise UsageError(str(e))


def _resolve_group(config) -> groups.ReflectionGroup:
    name = config.get("group")
    if name is None:
        raise UsageError("config needs a 'group' entry")
    try:
        return groups.get_group(name)
    except (KeyError, ValueError) as e:
        raise UsageError(str(e))


def _out_dir(args) -> str:
    """The --out directory, made just before the first write so that a rejected config leaves none."""
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------


def cmd_connect1d(args) -> int:
    config = _load_config(args)
    pot = _resolve_potential(config)
    half_length = _param(config, "half_length", 10.0)
    intervals = _param(config, "intervals", 2000, _positive_int)
    tol = _param(config, "tol", 1e-8)
    wells_cfg = config.get("wells")
    if wells_cfg is None:
        if pot.wells.shape[0] < 2:
            raise UsageError("potential has fewer than two wells; specify 'wells'")
        a_minus, a_plus = pot.wells[0], pot.wells[1]
    else:
        try:
            a_minus, a_plus = (_floats(w) for w in wells_cfg)
        except (TypeError, ValueError) as e:
            raise UsageError(f"'wells' must be two points: {e}")
    try:
        prof = connect.solve_connection(pot, a_minus, a_plus, half_length, intervals, tol)
    except ValueError as e:
        raise UsageError(str(e))
    except connect.ConnectionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
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
        "half_length": half_length,
        "intervals": intervals,
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


# the explicit-descent settings; a run that set one asked for another solver
REMOVED_SOLVER_KEYS = ("step_rule", "dt", "equivariance_budget", "k_sym", "check_every")


def cmd_solve(args) -> int:
    config = _load_config(args)
    pot = _resolve_potential(config)
    grp = _resolve_group(config)
    if grp.dimension != pot.m or pot.m not in (2, 3):
        raise UsageError(
            f"need matching dimensions n = m in {{2, 3}}; group acts on R^{grp.dimension}, "
            f"potential has m = {pot.m}"
        )
    if pot.wells.shape[0] < 2:
        raise UsageError(f"potential {pot.name!r} declares fewer than two wells")
    gcfg = _section(config, "grid")
    half_width = _param(gcfg, "half_width", 8.0)
    points = _param(gcfg, "points", 161, int)
    try:
        grid = fields.Grid(dim=grp.dimension, half_width=half_width, points=points)
    except ValueError as e:
        raise UsageError(f"bad grid: {e}")
    scfg = _section(config, "solver")
    for key in REMOVED_SOLVER_KEYS:
        if key in scfg:
            raise UsageError(f"solver key {key!r} no longer exists: every solve takes Newton steps")
    try:
        opts = fields.SolveOptions(
            max_iter=_param(scfg, "max_iter", 100_000, int),
            residual_target=_param(scfg, "residual_target", 1e-3),
        )
    except ValueError as e:
        raise UsageError(f"bad solver options: {e}")
    resume = config.get("resume")
    rm = groups.build_region_map(grp, pot.wells[0])
    if resume:
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
        ccfg = _section(config, "connection")
        try:
            prof = connect.solve_connection(
                pot,
                rm.wells[1],
                rm.wells[0],
                _param(ccfg, "half_length", 6.0),
                _param(ccfg, "intervals", 1200, _positive_int),
                _param(ccfg, "tol", 1e-9),
            )
        except ValueError as e:
            raise UsageError(f"bad connection: {e}")
        u0 = fields.initial_guess(grp, rm, prof, grid)
    try:
        result = fields.minimize(u0, pot, symmetry=grp, opts=opts)
    except fields.SolveError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
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
    config = _load_config(args)
    pot = _resolve_potential(config)
    fcfg = config.get("field")
    if not fcfg:
        raise UsageError("config needs 'field': {'csv': ..., 'meta': ...}")
    try:
        field = fields.load_field(fcfg["csv"], fcfg["meta"])
    except (OSError, KeyError, ValueError) as e:
        raise UsageError(f"cannot load field: {e}")
    if pot.m != field.m:
        raise UsageError(f"'potential' {pot.name!r} takes m = {pot.m} values; the field has m = {field.m}")
    hw = field.grid.half_width
    default = np.linspace(0.1 * hw, 0.9 * hw, 10)
    radii = _param(config, "monotonicity_radii", default, lambda v: _radii(v, hw))
    flux_radii = _param(config, "flux_radii", [0.3 * hw, 0.5 * hw], _radii)
    strip = _param(config, "hamiltonian_strip", None, lambda v: None if v is None else _strip(v))
    angle_radius = _param(config, "angle_radius", 0.6 * hw, _positive)
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
    payload["modica_deficit"] = diagnostics.modica_deficit(field, pot)
    mono = diagnostics.monotonicity_profile(field, pot, np.zeros(field.grid.dim), radii)
    payload["monotonicity_violation"] = mono["max_relative_violation"]
    out = _out_dir(args)
    _write_csv(
        os.path.join(out, "monotonicity.csv"),
        ["radius", "energy", "ratio"],
        zip(mono["radii"], mono["energies"], mono["ratios"]),
    )
    try:
        payload["flux"] = [diagnostics.flux_balance(field, pot, float(r)).tolist() for r in flux_radii]
    except diagnostics.DiagnosticsError as e:
        payload["flux"] = None
        payload["flux_flag"] = str(e)
    if field.grid.dim == 2:
        try:
            ham = diagnostics.hamiltonian_variance(field, pot, strip=strip)
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


def _steiner_rows(config) -> list:
    """Ax,Ay,Bx,By,Cx,Cy,e12,e13,e23 rows: CSV cells of the batch, or the single triangle."""
    batch = config.get("batch")
    if batch:
        try:
            with open(batch) as fh:
                lines = fh.read().splitlines()[1:]
        except OSError as e:
            raise UsageError(f"cannot read batch: {e}")
        stripped = (line.split("#")[0].strip() for line in lines)
        return [line.split(",") for line in stripped if line]
    if "triangle" in config:
        t = config["triangle"]
        try:
            return [[*t["A"], *t["B"], *t["C"], t["e12"], t["e13"], t["e23"]]]
        except (KeyError, TypeError) as e:
            raise UsageError(f"triangle needs A, B, C and e12, e13, e23: {e}")
    raise UsageError("steiner config needs 'batch' (CSV path) or 'triangle'")


def _triangle(cells) -> partitions.WeightedTriangle:
    if len(cells) != 9:
        raise ValueError(f"expected 9 columns; got {len(cells)}")
    v = [float(c) for c in cells]
    return partitions.WeightedTriangle(v[0:2], v[2:4], v[4:6], v[6], v[7], v[8])


def cmd_steiner(args) -> int:
    config = _load_config(args)
    if "tol" in config:
        raise UsageError("steiner key 'tol' no longer exists: the Steiner point is computed in closed form")
    rows = _steiner_rows(config)
    out_rows = []
    n_err = 0
    for i, cells in enumerate(rows):
        try:
            P, info = partitions.steiner_point(_triangle(cells))
            out_rows.append(
                [
                    str(i),
                    _fmt(P[0]),
                    _fmt(P[1]),
                    _fmt(info["residual"]),
                    "1" if info["captured"] else "0",
                    "1" if info["converged"] else "0",
                    "",
                ]
            )
        except ValueError as e:  # malformed row or partitions.PartitionError
            n_err += 1
            out_rows.append([str(i), "", "", "", "", "", str(e)])
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
    config = _load_config(args)
    pcfg = config.get("partition")
    if pcfg is None:
        raise UsageError("config needs a 'partition' entry (inline JSON or path)")
    try:
        if isinstance(pcfg, str):
            with open(pcfg) as fh:
                part = partitions.partition_from_json(json.load(fh))
        else:
            part = partitions.partition_from_json(_section(config, "partition"))
    except (OSError, LookupError, TypeError, ValueError) as e:  # ValueError includes PartitionError
        raise UsageError(f"bad partition: {e}")
    tensions_cfg = config.get("tensions")
    if tensions_cfg is None:
        e = np.ones((part.phases, part.phases)) - np.eye(part.phases)
    else:
        e = _param(config, "tensions", None, _floats)
    try:
        tensions = partitions.TensionMatrix(e)
    except partitions.PartitionError as err:
        raise UsageError(str(err))
    if tensions.phases < part.phases:
        raise UsageError(f"tension matrix is {tensions.phases}x{tensions.phases} for {part.phases} phases")
    center = _param(config, "center", [0.0, 0.0], _floats)
    radii = _param(config, "radii", np.linspace(0.2, 2.0, 10), _floats)
    scales = _param(config, "blowdown_scales", [1.0, 0.5, 0.25, 0.125], _floats)
    if center.shape != (2,):
        raise UsageError(f"'center' must be a point [x, y]; got {center.tolist()}")
    if not (np.all(radii > 0) and np.all(scales > 0) and np.all(np.diff(scales) < 0)):
        raise UsageError("'radii' must be positive and 'blowdown_scales' positive and strictly decreasing")
    rows = []
    for r in radii:
        w = partitions.disk(center, float(r))
        rows.append(
            [
                float(r),
                partitions.density(part, center, float(r)),
                partitions.partition_energy(part, tensions, w),
            ]
        )
    out = _out_dir(args)
    _write_csv(os.path.join(out, "density.csv"), ["radius", "density", "energy"], rows)
    seq = partitions.blow_down(part, center, scales)
    unit = partitions.disk(center, 1.0)
    ref = config.get("blowdown_reference")
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
