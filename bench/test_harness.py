"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_harness.py -q

The arithmetic tests need no package; the smoke tests run every workload at
its tiny size through ``run.py --smoke`` and check the printed schema
against BENCHMARK.json (about a minute).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tracing
from calibration import REFERENCE_S
from run import ROOT, Run, tail_percentile
from workloads import RING16, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    # root [0, 10] -> a [1, 4], b [5, 9]; b -> c [6, 7]
    spans = [
        ("cli.main", 0.0, 10.0, -1, 1),
        ("analysis.run_evolution", 1.0, 4.0, 0, 1),
        ("floquet.monodromy_matrix", 5.0, 9.0, 0, 1),
        ("floquet.circle_gap", 6.0, 7.0, 2, 1),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    totals = tracing.aggregate(spans)
    assert totals["floquet.self_s"] == 4.0
    assert totals["floquet.monodromy_matrix.calls"] == 1
    assert sum(totals[f"{layer}.self_s"] for layer in tracing.LAYERS) == 10.0


def test_covered_length_merges_overlaps_and_clips():
    assert tracing.covered_length([(1, 5), (3, 6)], 0, 10) == 5
    assert tracing.covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert tracing.covered_length([(2, 3), (2, 3)], 0, 10) == 1
    assert tracing.covered_length([], 0, 10) == 0


def test_tail_percentile_keeps_ten_samples_above():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(20))) == (50.0, 9)
    assert tail_percentile(list(range(100))) == (90.0, 89)


def test_timings_are_scaled_by_the_calibration_around_them():
    run = Run(WORKLOADS["direct_ring"], 0, True, Path("unused"))
    result = {"setup_s": 1.5, "wall_s": [2.0, 3.0], "peak_rss_mb": 100.0,
              "calibration_s": [REFERENCE_S * 1.5, REFERENCE_S * 2.5, REFERENCE_S * 3.5]}
    run.children = [{"job": {"horizon": 2}, "traced": False, "ok": True, "result": result}]
    stats = run.end_to_end()
    assert stats["wall_ref_s"]["values"] == pytest.approx([1.0, 1.0])
    assert stats["throughput_ref"]["values"] == pytest.approx([2.0, 2.0])
    assert stats["setup_s"]["values"] == pytest.approx([1.0])
    assert stats["raw.wall_s"]["values"] == [2.0, 3.0]
    assert stats["raw.setup_s"]["values"] == [1.5]


def test_tracer_wraps_every_binding_and_records_parents():
    layer = types.ModuleType("fake_layer")
    exec("def leaf(x):\n    return x + 1\n"
         "def outer(x):\n    return leaf(x) * 2\n", layer.__dict__)
    user = types.ModuleType("fake_user")
    user.outer = layer.outer
    package = types.ModuleType("fake_package")
    package.leaf = layer.leaf
    tracer = tracing.Tracer()
    assert tracer.install(package, {"floquet": layer, "cli": user}) == 4
    assert user.outer(1) == 4 and package.leaf(0) == 1
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("floquet.outer", -1), ("floquet.leaf", 0), ("floquet.leaf", -1)]


def test_generated_ring_config_is_the_reference_config():
    text = (ROOT / "scripts" / "reference.cfg").read_text()
    values = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    assert set(values) == set(RING16)
    for key, value in values.items():
        if key != "outdir":
            want = RING16[key]
            assert (float(value) == pytest.approx(want) if isinstance(want, float)
                    else value == str(want)), key


def _run(workload, trace, seed=0):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_schema(workload):
    report, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        line = next(l for l in report if l.split()[:1] == [name])
        assert int(re.search(r"samples (\d+)", line).group(1)) >= 1
    assert any(l.split()[:1] == ["failed_frac"] for l in report)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_trace_counts_repeat(workload):
    runs = [_run(workload, 1, seed) for seed in (0, 0)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for _, result in runs:
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert result["metrics"]["trace.covered_frac"]["value"] > 0.9
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] not in ("s", "fraction") or k.endswith("mode_frac")})
    assert counts[0] == counts[1]
