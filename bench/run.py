"""Benchmark harness for driven-lattice.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (``sweep``, ``direct_ring``, ``replay``, and
``ring_packet``, which BENCHMARK.json leaves out; see ``workloads.py`` and
``NOTES.md``) for about ``--seconds`` seconds.  The run is three fresh child
processes (``child.py``) started one at a time, each set up once and then
repeating the workload's operation until its third of the run is over.  The
children are single-threaded: BLAS and OpenMP threads are pinned to 1 in
their environment and the sweep runs with one worker.  The harness checks
every operation's output, then prints a per-metric report and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
whose metrics are the ``end_to_end`` list of BENCHMARK.json (``--trace 0``)
or its ``per_layer`` list (``--trace 1``).

``--trace 1`` alternates traced and untraced children that run a fixed
number of operations each; per-layer numbers come from the traced ones, and
``trace.overhead_s`` is the difference of the two kinds' median operation
times.  ``--smoke`` runs every workload at a tiny
size (1 frequency, a 2-supercell ring, 1 period per operation) with output
invariants checked but no reference comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from calibration import REFERENCE_S
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

THREADS = 1          # BLAS / OpenMP threads per child
WORKERS = 1          # sweep worker processes
CHILDREN = 3         # children of an untraced run, one set-up sample each
RUN_LIMIT_S = 170.0  # a run ends within 180 s whatever --seconds says
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def tail_percentile(values):
    """(percent, value) of the highest percentile with at least ten samples
    above it, or None with fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def summary(values) -> dict:
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values) if values else math.nan,
        "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "samples": len(values),
        "values": values,
    }


def source_identity() -> dict:
    """Git commit when the checkout is a git work tree, and always a digest
    of the package sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                **{var: str(THREADS) for var in THREAD_VARS})


def run_child(job: dict, outdir: Path, env: dict, timeout: float):
    """Start child.py on ``job`` and wait for it; returns (exit code or None
    on timeout, result dict or None)."""
    job.setdefault("trace", False)
    job.update(src=str(ROOT / "src"), result=str(outdir / "result.json"),
               spans=str(outdir / "spans.json"))
    if "config" in job:
        Path(job["config_path"]).write_text(job["config"], encoding="utf-8")
    job_path = outdir / "job.json"
    with open(outdir / "child.log", "wb") as log:
        job["spawned"] = time.monotonic()
        job_path.write_text(json.dumps(job), encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(job_path)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result = None
    if code == 0:
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    return code, result


class Run:
    """One benchmark run: children started one after another until the
    time is up, each checked as soon as it ends."""

    def __init__(self, workload, seed: int, smoke: bool, work: Path):
        self.workload, self.seed, self.smoke, self.work = workload, seed, smoke, work
        self.env = child_env()
        self.children: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.started = time.monotonic()

    def spawn(self, traced: bool, deadline: float | None = None) -> dict:
        """Run one child: a fixed number of operations, or as many as fit
        before ``deadline`` (on the monotonic clock)."""
        index = len(self.children)
        outdir = self.work / f"child{index:03d}"
        outdir.mkdir(parents=True)
        job = self.workload.job(self.seed, self.smoke, outdir)
        job["trace"] = traced
        if deadline is not None:
            job.update(deadline=deadline, calibrate=True)
        limit = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        code, result = run_child(job, outdir, self.env, limit)
        child = {"job": job, "traced": traced, "result": result}
        self.children.append(child)
        self.account(child, outdir, code)
        return child

    def account(self, child: dict, outdir: Path, code) -> None:
        """Count each operation of the child as attempted, and as failed
        unless it ran to completion and its output passed every check."""
        job, result = child["job"], child["result"]
        units = self.workload.attempts(job)
        if result is None:
            log = (outdir / "child.log").read_text(errors="replace")[-2000:]
            self.problems.append(f"child {outdir.name} failed (exit {code}): {log}")
            self.attempted += units
            self.failed += units
            child["ok"] = False
            return
        child["ok"] = True
        codes = result["exit_codes"] or [0] * len(result["wall_s"])
        for op, cli_code in enumerate(codes):
            self.attempted += units
            if cli_code != 0:
                failed, problems = units, [f"child {outdir.name} operation {op}: cli exit {cli_code}"]
            else:
                failed, problems = self.workload.check(job, self.smoke, op)
            self.failed += failed
            self.problems += problems
            child["ok"] = child["ok"] and failed == 0 and not problems

    def ops(self, traced: bool) -> list[dict]:
        return [c for c in self.children if c["traced"] == traced and c.get("ok")]

    def execute(self, seconds: float, trace: bool) -> None:
        """Untraced: CHILDREN children, each filling its share of
        ``seconds`` with operations.  Traced: children of a fixed number of
        operations until the next one would end more than half a child past
        ``seconds``, at least one of each kind."""
        deadline = self.started + seconds
        if not trace:
            for index in range(CHILDREN):
                self.spawn(False, self.started + seconds * (index + 1) / CHILDREN)
                if time.monotonic() - self.started > RUN_LIMIT_S / 2:
                    break
            return
        durations = []
        while True:
            traced = len(self.children) % 2 == 0
            begun = time.monotonic()
            self.spawn(traced)
            durations.append(time.monotonic() - begun)
            now = time.monotonic()
            kinds = {c["traced"] for c in self.children}
            if now > deadline - statistics.median(durations) / 2 and kinds == {True, False}:
                break
            if now - self.started > RUN_LIMIT_S / 2:
                break

    def end_to_end(self) -> dict:
        """The end-to-end metrics, timings in reference seconds (each time
        scaled by REFERENCE_S over the calibration kernel's time around
        it), and the raw wall-clock figures, which are reported only."""
        children = self.ops(False)
        walls, raw_walls = [], []
        for c in children:
            units, cal = self.workload.units_per_op(c["job"]), c["result"]["calibration_s"]
            for op, wall in enumerate(c["result"]["wall_s"]):
                raw_walls.append(wall)
                walls.append((units, wall * 2 * REFERENCE_S / (cal[op] + cal[op + 1])))
        results = [c["result"] for c in self.children if c["result"]]
        return {
            "wall_ref_s": summary([w for _, w in walls]),
            "throughput_ref": summary([u / w for u, w in walls]),
            "setup_s": summary([r["setup_s"] * REFERENCE_S / r["calibration_s"][0]
                                for r in results]),
            "peak_rss_mb": summary([c["result"]["peak_rss_mb"] for c in children]),
            "raw.wall_s": summary(raw_walls),
            "raw.setup_s": summary([r["setup_s"] for r in results]),
            "raw.calibration_s": summary([x for r in results for x in r["calibration_s"]]),
        }

    def per_layer(self) -> dict:
        traced = self.ops(True)
        layers = []
        for c in traced:
            dump = json.loads(Path(c["job"]["spans"]).read_text(encoding="utf-8"))
            layers.append(tracing.layer_metrics(
                dump, c["result"]["trace_wall_s"], sum(c["result"]["wall_s"])))
        names = sorted(set().union(*layers)) if layers else []
        merged = {n: statistics.median(m.get(n, 0.0) for m in layers) for n in names}
        # computed counts must repeat exactly between children of one run
        for name in names:
            if not name.endswith("_s") and not name.startswith("trace."):
                values = {m.get(name, 0.0) for m in layers}
                if len(values) > 1:
                    self.problems.append(f"count {name} differs between children: {sorted(values)}")
        untraced = [w for c in self.ops(False) for w in c["result"]["wall_s"]]
        traced_wall = [w for c in traced for w in c["result"]["wall_s"]]
        if traced_wall and untraced:
            merged["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(untraced)
        return merged


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def preflight() -> str | None:
    if not (ROOT / "src" / "driven_lattice" / "__init__.py").is_file():
        return f"no package sources under {ROOT / 'src'}"
    if not (ROOT / "BENCHMARK.json").is_file():
        return "BENCHMARK.json not found"
    nproc = len(os.sched_getaffinity(0))
    if WORKERS * THREADS > nproc:
        return f"{WORKERS} workers x {THREADS} threads oversubscribe {nproc} cores"
    return None


def report(run: Run, spec: dict, trace: bool) -> dict:
    env = next((c["result"]["env"] for c in run.children if c["result"]), {})
    env.update(source_identity(), workers=WORKERS)
    print(f"workload {run.workload.name}  seed {run.seed}  trace {int(trace)}  "
          f"smoke {int(run.smoke)}  children {len(run.children)}")
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {}
    if trace:
        layers = run.per_layer()
        for entry in spec["per_layer"]:
            value = layers.get(entry["name"], 0.0)
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        wall = layers.get("trace.wall_s", math.nan)
        op_wall = layers.get("trace.op_wall_s", math.nan)
        print("  self-time share    set-up+operation   operation")
        for layer in tracing.LAYERS:
            print(f"  {layer:<18} {layers.get(f'{layer}.self_s', 0.0) / wall:16.2%}"
                  f" {layers.get(f'op.{layer}.self_s', 0.0) / op_wall:11.2%}")
        for name, value in sorted(layers.items()):
            print(f"  {name:<48} {value:.6g}")
    else:
        stats = run.end_to_end()
        units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
        units.update({"raw.wall_s": "s", "raw.setup_s": "s", "raw.calibration_s": "s"})
        for name, unit in units.items():
            s = stats[name]
            tail = s["tail"] and f"p{s['tail']['percentile']:.0f} {s['tail']['value']:.6g}"
            print(f"  {name:<17} median {s['median']:.6g} {unit:<5} "
                  f"tail {tail or '-'}  samples {s['samples']}  "
                  f"[{' '.join(f'{v:.4g}' for v in s['values'])}]")
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {"value": stats[entry["name"]]["median"], "unit": entry["unit"]}
    frac = run.failed / run.attempted if run.attempted else math.nan
    print(f"  failed_frac  {frac:.6g} ({run.failed}/{run.attempted} {run.workload.attempt_unit})")
    for problem in run.problems:
        print(f"  problem: {problem}")
    values_ok = True
    for metric in metrics.values():
        if not math.isfinite(metric["value"]):
            metric["value"], values_ok = 0.0, False
    return {
        "correct": run.failed == 0 and not run.problems and values_ok and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, invariants only (harness self-test)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    problem = preflight()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(WORKLOADS[args.workload], args.seed, args.smoke, work)
    run.execute(seconds, bool(args.trace))
    result = report(run, spec, bool(args.trace))
    if result["correct"]:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
