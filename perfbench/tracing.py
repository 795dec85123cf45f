"""Span tracing from outside the library.

``install(tracer)`` replaces each public function in ``WRAPPED`` by a timing
wrapper on its module attribute (or class attribute, or ``cli.COMMANDS``
entry) and returns a function that restores the originals.  Library modules
call their own globals and ``kernels.*`` through module attributes, so the
wrappers see every internal call without any change to the library.

A span records name, start, end, parent span, op id and the exact counts its
counter reads off the call.  Spans stay in memory; ``dump`` writes them out
at the end of a run and ``layer_metrics`` turns one op's spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top level
    op: int
    counts: dict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.op = -1
        self._stack: list = []

    def call(self, name, fn, counter, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self._stack.append(idx)
        self.spans.append(None)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.op, {})
        if counter is not None:
            self.spans[idx] = Span(name, start, end, parent, self.op, counter(args, kwargs, result))
        return result


# ---------------------------------------------------------------------------
# Counters: exact counts read off the arguments and results of a call.


def _points(args, kwargs, result):
    spec, pts = args[0], args[1]
    return {"points": int(np.size(pts) // spec.m)}


def _interp_points(args, kwargs, result):
    return {"points": int(result.shape[0])}


def _stencil_bytes(args, kwargs, result):
    # computed from array sizes: the field is read once and the result written once
    return {"bytes": int(args[0].nbytes + result.nbytes)}


def _read_bytes(args, kwargs, result):
    return {"bytes": int(args[0].nbytes)}


def _minimize_counts(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _steiner_counts(args, kwargs, result):
    info = result[1]
    return {"iterations": int(info["iterations"]), "captured": int(bool(info["captured"]))}


def _saved_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in args[1:3])}


def _cli_bytes(args, kwargs, result):
    out = args[0].out
    total = 0
    for root, _, files in os.walk(out):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return {"bytes_written": total}


# (owner, attribute, span name, counter); owner is "module" or "module:Class"
WRAPPED = [
    ("multiwell.potentials:PotentialSpec", "value_field", "potentials.value_field", _points),
    ("multiwell.potentials:PotentialSpec", "grad_field", "potentials.grad_field", _points),
    ("multiwell.potentials:PotentialSpec", "hess_field", "potentials.hess_field", None),
    ("multiwell.kernels", "laplacian", "kernels.laplacian", _stencil_bytes),
    ("multiwell.kernels", "link_energy", "kernels.link_energy", _read_bytes),
    ("multiwell.kernels", "interp", "kernels.interp", _interp_points),
    ("multiwell.fields", "equivariance_residual_pairs", "groups.equivariance", None),
    ("multiwell.fields", "symmetrize_pairs", "groups.project", None),
    ("multiwell.fields", "minimize", "fields.minimize", _minimize_counts),
    ("multiwell.fields", "energy", "fields.energy", None),
    ("multiwell.fields", "pde_residual", "fields.pde_residual", None),
    ("multiwell.fields", "initial_guess", "fields.initial_guess", None),
    ("multiwell.fields", "save_field", "fields.save_field", _saved_bytes),
    ("multiwell.fields", "load_field", "fields.load_field", None),
    ("multiwell.connect", "solve_connection", "connect.solve_connection", None),
    ("multiwell.connect", "hyperbolicity_gap", "connect.hyperbolicity_gap", None),
    ("multiwell.connect", "save_profile", "connect.save_profile", None),
    ("multiwell.partitions", "steiner_point", "partitions.steiner_point", _steiner_counts),
    ("multiwell.partitions", "hausdorff_distance", "partitions.hausdorff_distance", None),
]


def _targets():
    for owner, attr, name, counter in WRAPPED:
        mod_name, _, cls_name = owner.partition(":")
        obj = importlib.import_module(mod_name)
        if cls_name:
            obj = getattr(obj, cls_name)
        yield obj, attr, name, counter
    # every public function of diagnostics, as diagnostics.<name>
    diag = importlib.import_module("multiwell.diagnostics")
    for attr, fn in vars(diag).items():
        if inspect.isfunction(fn) and fn.__module__ == diag.__name__ and not attr.startswith("_"):
            yield diag, attr, f"diagnostics.{attr}", None


def _wrap(tracer, fn, name, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, counter, args, kwargs)

    return wrapper


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    for obj, attr, name, counter in _targets():
        fn = vars(obj)[attr]
        saved.append((obj, attr, fn))
        setattr(obj, attr, _wrap(tracer, fn, name, counter))
    cli = importlib.import_module("multiwell.cli")
    commands = dict(cli.COMMANDS)
    for cmd, fn in commands.items():
        cli.COMMANDS[cmd] = _wrap(tracer, fn, f"cli.{cmd}", _cli_bytes)

    def restore():
        for obj, attr, fn in reversed(saved):
            setattr(obj, attr, fn)
        cli.COMMANDS.update(commands)

    return restore


# ---------------------------------------------------------------------------
# Analysis


def self_times(spans: list) -> list:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo, hi = max(spans[c].start, s.start), min(spans[c].end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def _has_ancestor(spans: list, i: int, match) -> bool:
    p = spans[i].parent
    while p >= 0:
        if match(spans[p].name):
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list, wall: float) -> dict:
    """Per-layer metrics of one op from its spans (indices are op-local)."""
    selfs = self_times(spans)
    stats = defaultdict(lambda: defaultdict(int))
    for i, s in enumerate(spans):
        st = stats[s.name]
        st["calls"] += 1
        st["s"] += s.end - s.start
        st["self_s"] += selfs[i]
        for k, v in s.counts.items():
            st[k] += v
    out = {}
    for name, st in stats.items():
        for k, v in st.items():
            out[f"{name}.{k}"] = v
    # group totals over a module whose functions call each other: the
    # outermost spans carry the time, every span counts as a call
    for group in ("diagnostics", "cli"):
        prefix = group + "."
        in_group = [i for i, s in enumerate(spans) if s.name.startswith(prefix)]
        outer = [i for i in in_group if not _has_ancestor(spans, i, lambda n: n.startswith(prefix))]
        out[f"{group}.calls"] = len(in_group)
        out[f"{group}.s"] = sum(spans[i].end - spans[i].start for i in outer)
    out["cli.bytes_written"] = sum(s.counts.get("bytes_written", 0) for s in spans)
    energy_in_min = sum(
        1
        for i, s in enumerate(spans)
        if s.name == "fields.energy" and _has_ancestor(spans, i, lambda n: n == "fields.minimize")
    )
    iters = out.get("fields.minimize.iterations", 0)
    out["fields.minimize.accept_ratio"] = iters / energy_in_min if energy_in_min else 0.0
    out["unattributed_s"] = wall - sum(selfs)
    return out


def op_spans(spans: list, op: int) -> list:
    """The spans of one op, re-indexed so parents point inside the list."""
    idx = [i for i, s in enumerate(spans) if s.op == op]
    remap = {old: new for new, old in enumerate(idx)}
    return [spans[i]._replace(parent=remap.get(spans[i].parent, -1)) for i in idx]


def dump(spans: list, path) -> None:
    """Write spans as JSON: a column list and one row per span."""
    cols = list(Span._fields)
    with open(path, "w") as fh:
        fh.write(json.dumps({"columns": cols}) + "\n")
        for s in spans:
            fh.write(json.dumps(list(s)) + "\n")
