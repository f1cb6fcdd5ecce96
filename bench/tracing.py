"""Span tracer for the benchmark's traced runs, and the self-time arithmetic.

The tracer replaces every public function of the package's layer modules at
each module attribute the package (or the benchmark) calls it through, so a
call made as ``floquet.monodromy_matrix`` inside ``floquet`` and one made as
``analysis.labeled_spectrum`` inside ``analysis`` are both recorded.  A span
is ``(name, start, end, parent, run_id)``; spans are kept in memory and
written once, when the traced child ends.  Counters attached to a few
functions record work computed from the call's arguments and result
(substeps, basis size, frames, bytes written), outside the span's interval.

This module imports nothing from the package; ``install`` receives the
imported modules, so the parent harness can use ``self_times`` without
importing the code under test.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
from collections import defaultdict

LAYERS = ("lattice", "propagate", "floquet", "dynamics", "analysis", "cli")

# Computed (not measured) floating-point work of one monodromy substep with
# basis size B: a complex Hermitian eigendecomposition with eigenvectors
# (~36 B^3 real FLOP, four times the 9 n^3 of the real symmetric QR method)
# plus two complex B x B products (8 B^3 each) to form exp(-i W dt) and apply
# it.  A model, reported as "computed", for comparing work across versions.
FLOP_PER_SUBSTEP_PER_B3 = 36 + 8 + 8

SETUP_RUN_ID, OP_RUN_ID = 0, 1   # operation k of a child has run id OP_RUN_ID + k


class Tracer:
    """Records nested spans and per-call counters for wrapped functions."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.run_id = SETUP_RUN_ID
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, package, modules: dict, counters: dict | None = None) -> int:
        """Wrap every public function of ``modules`` (layer name -> module)
        wherever ``package`` or one of the modules binds it, attaching the
        counter of the same span name.  Returns the bindings replaced."""
        originals = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    originals[value] = f"{layer}.{attr}"
        counters = counters or {}
        wrappers = {
            fn: self.wrap(name, fn, counters.get(name))
            for fn, name in originals.items()
        }
        replaced = 0
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(namespace, attr, wrappers[value])
                    replaced += 1
        return replaced

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}


def package_counters(modules: dict) -> dict:
    """Counters of the driven-lattice layers, keyed by span name.  Each takes
    (counts, args, kwargs, result) and calls only unwrapped package code, so
    it must be built before ``install``."""
    default_params = modules["propagate"].default_params

    def arg(args, kwargs, pos, key, default=None):
        if key in kwargs:
            return kwargs[key]
        return args[pos] if len(args) > pos else default

    def monodromy(counts, args, kwargs, result):
        spec = arg(args, kwargs, 0, "spec")
        params = arg(args, kwargs, 2, "params") or default_params(spec)
        n = params.substeps_per_period
        b = int(result.shape[0])
        counts["floquet.monodromy_matrix.substeps"] += n
        counts["floquet.monodromy_matrix.basis_size"] = max(
            counts["floquet.monodromy_matrix.basis_size"], b)
        counts["floquet.monodromy_matrix.gflop_computed"] += (
            n * FLOP_PER_SUBSTEP_PER_B3 * b**3 / 1e9)

    def evolve(counts, args, kwargs, result):
        spec = arg(args, kwargs, 1, "spec")
        params = arg(args, kwargs, 2, "params")
        duration = arg(args, kwargs, 3, "duration")
        # the integrator's own rule for the number of substeps in `duration`
        counts["propagate.substeps"] += max(
            1, int(round(params.substeps_per_period * duration / spec.period)))

    def match(counts, args, kwargs, result):
        counts["floquet.match_band_labels.flags"] += len(result[1])

    def trace(counts, args, kwargs, result):
        dec = arg(args, kwargs, 0, "dec")
        frames = int(len(result.periods))
        columns = dec.coefficients.shape[0] * dec.coefficients.shape[1]
        active = int((dec.coefficients != 0).sum())
        counts["dynamics.population_trace.frames"] += frames
        counts["dynamics.population_trace.mode_columns"] += frames * columns
        counts["dynamics.population_trace.active_columns"] += frames * active

    def csv_bytes(counts, args, kwargs, result):
        path = os.fspath(result)
        size = os.path.getsize(path) + os.path.getsize(path + ".meta.json")
        counts["analysis.write_csv.bytes"] += size

    def sweep(counts, args, kwargs, result):
        counts["analysis.run_nmax_sweep.failures"] += len(result.failures)

    out = {
        "floquet.monodromy_matrix": monodromy,
        "propagate.evolve_ring": evolve,
        "floquet.match_band_labels": match,
        "dynamics.population_trace": trace,
        "analysis.run_nmax_sweep": sweep,
    }
    for name in ("write_evolution_csv", "write_sweep_csv", "write_modes_csv",
                 "write_resonances_csv"):
        out[f"analysis.{name}"] = csv_bytes
    return out


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent, run_id in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children[i], start, end)
        for i, (name, start, end, parent, run_id) in enumerate(spans)
    ]


def aggregate(spans) -> dict:
    """Per-function calls and self time, and per-layer self time, by name."""
    out: dict = defaultdict(float)
    for (name, *_), self_s in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{layer}.self_s"] += self_s
    return out


def write_csv_name(name: str) -> str:
    """All write_*_csv functions report under analysis.write_csv."""
    return "analysis.write_csv" if name.startswith("analysis.write_") else name


def layer_metrics(dump: dict, wall_s: float, op_wall_s: float) -> dict:
    """Flat per-layer metrics of one traced child.  ``wall_s`` is the traced
    time after the import (set-up and operations), ``op_wall_s`` the timed
    operations alone; ``op.<layer>.self_s`` counts spans of the operations."""
    spans = [(write_csv_name(s[0]),) + tuple(s[1:]) for s in dump["spans"]]
    out = aggregate(spans)
    out.update(dump["counts"])
    columns = out.pop("dynamics.population_trace.mode_columns", 0.0)
    active = out.pop("dynamics.population_trace.active_columns", 0.0)
    out["dynamics.population_trace.active_mode_frac"] = active / columns if columns else 0.0
    op_self: dict = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        if span[4] >= OP_RUN_ID:
            op_self[span[0].split(".", 1)[0]] += self_s
    for layer in LAYERS:
        out[f"op.{layer}.self_s"] = op_self[layer]
    total_self = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.wall_s"] = wall_s
    out["trace.op_wall_s"] = op_wall_s
    out["trace.covered_frac"] = total_self / wall_s if wall_s > 0 else math.nan
    out["trace.spans"] = len(spans)
    return out
