"""Benchmark of the reference workloads, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload junction_cli --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each op starts when the previous one
ends.  The process pins BLAS/OpenMP threads to 1, builds the workload from
the seed (set-up), runs one discarded warm-up op, then runs ops until
``--seconds`` have passed.  Every op is checked by the workload's gates; the
warm-up op is the reference its successors must reproduce byte for byte.

On a shared host the speed of a core wanders: the same op takes up to half
as long again in stretches of tens of seconds, and which stretches a run
meets is chance.  So the end-to-end op time is the run's fastest op, its
cost in the fastest stretch the run met.  The median, the tail (the highest
percentile with ten ops beyond it, or the slowest op in a shorter run) and
every op time are printed on the line before the result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced ops and reports the per-layer metrics of the traced
ones; the spans are written to ``.perfbench/`` when the run ends.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  A missing library source tree exits with code 2 and no result.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

THREAD_PINS = {
    v: "1"
    for v in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)  # before numpy loads its BLAS

import tracing  # noqa: E402  (imports numpy)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy as np
    import scipy

    from multiwell import kernels

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "kernel_lane": "numba" if kernels.USE_NUMBA else "numpy",
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def measure_setup(args) -> list:
    """Seconds from process start to ready-for-the-first-op, measured on
    fresh processes that stop after set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append(t1 - t0)
    return times


def tail(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, as
    (value, samples beyond).  Runs with fewer than eleven ops have no such
    percentile; their tail is the slowest op."""
    xs = sorted(values)
    if len(xs) < 11:
        return xs[-1], 0
    return xs[-11], 10


def run_op(workload, reference, tracer=None):
    """One op: wall seconds, the result (None if it raised) and its failed gates."""
    from workloads import compare_to_reference  # importable once main put src on the path

    restore = tracing.install(tracer) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        result = workload.op()
    except Exception:  # an op that raises counts as failed; the run goes on
        traceback.print_exc()
        return time.perf_counter() - t0, None, ["op raised"]
    finally:
        if restore is not None:
            restore()
    wall = time.perf_counter() - t0
    return wall, result, workload.check(result) + compare_to_reference(result, reference)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "multiwell" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(work))
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return measure(args, workload)


def measure(args, workload) -> int:
    facts = machine_facts()
    setup = measure_setup(args) if not args.trace else []

    warm_wall, reference, warm_fails = run_op(workload, None)
    print(f"warm-up op: {warm_wall:.3f} s, gates: {warm_fails or 'pass'}")

    tracer = tracing.Tracer() if args.trace else None
    walls = {True: [], False: []}  # traced? -> op walls
    layer_rows = []
    traced_failed = attempted = failed = 0
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds or not walls[False]
           or (tracer is not None and not walls[True])):
        traced = tracer is not None and len(walls[True]) <= len(walls[False])
        if traced:
            tracer.op = attempted
        wall, result, fails = run_op(workload, reference, tracer if traced else None)
        attempted += 1
        failed += bool(fails)
        traced_failed += traced and bool(fails)
        walls[traced].append(wall)
        if traced:
            layer_rows.append(tracing.layer_metrics(tracing.op_spans(tracer.spans, tracer.op), wall))
        print(f"op {attempted}: {wall:.3f} s{' traced' if traced else ''}, "
              f"counts {result.counts if result else None}, gates: {fails or 'pass'}")

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        values = {"setup_s": statistics.median(setup), "wall_s.min": min(walls[False]), "peak_rss_mb": rss_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["end_to_end"]}
        tail_value, beyond = tail(walls[False])
        summary = {"setup_samples": setup, "op_walls": walls[False],
                   "wall_s.median": statistics.median(walls[False]),
                   "wall_s.tail": tail_value, "tail_samples_beyond": beyond}
    else:
        metrics = layer_summary(layer_rows, walls)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracing.dump(tracer.spans, spans_path)
        summary = {"traced_walls": walls[True], "untraced_walls": walls[False],
                   "traced_match_untraced": traced_failed == 0,
                   "spans": len(tracer.spans), "span_dump": str(spans_path.relative_to(ROOT))}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": facts,
                      "fail_ratio": failed / attempted, **summary}))
    print(json.dumps({
        "correct": not warm_fails and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_summary(rows: list, walls: dict) -> dict:
    """Median over traced ops of each per-layer metric named in BENCHMARK.json;
    a layer the workload never calls reads 0."""
    out = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name == "trace_overhead":
            value = min(walls[True]) - min(walls[False])
        else:
            value = statistics.median(r.get(name, 0.0) for r in rows)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


if __name__ == "__main__":
    sys.exit(main())
