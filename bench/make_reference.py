"""Regenerate the reference rows under bench/reference/.

    python3 bench/make_reference.py

Runs each computation once through the same child process the benchmark
uses (single-threaded, a few minutes in all) and keeps the data rows the
checks compare against: every sweep frequency any seed can visit, and the
ring and replay populations of every packet centre at a subset of periods.
Headers are dropped; they carry the output directory.
"""

from __future__ import annotations

import shutil
import sys

import numpy as np

from run import WORK, child_env, run_child
from workloads import (
    CENTRES, DIRECT_PERIODS, REFERENCE_DIR, SWEEP_OFFSETS, SWEEP_START, SWEEP_STEP,
    SWEEP_WIDTH, WORKLOADS, evolve_array, read_rows,
)

RING_PERIODS = sorted(set(range(DIRECT_PERIODS + 1)) | set(range(0, 401, 20)))
REPLAY_PERIODS = list(range(0, 201, 20))


def _child(job, outdir):
    code, result = run_child(job, outdir, child_env(), timeout=600)
    if code != 0 or any(result["exit_codes"]):
        sys.exit(f"reference run failed; see {outdir / 'child.log'}")


def _seed_for(workload, center):
    return next(s for s in range(1000)
                if workload.job(s, False, WORK)["center"] == center)


def _population_rows(center, label, periods, sites, values, keep):
    for j, m in enumerate(periods):
        if m in keep:
            for i, s in enumerate(sites):
                yield f"{center:g},{label},{m},{s},{values[i, j]:.12g}"


def main() -> int:
    work = WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)

    outdir = work / "sweep"
    outdir.mkdir(parents=True)
    job = WORKLOADS["sweep"].job(0, False, outdir)
    last = SWEEP_START + SWEEP_STEP * (SWEEP_OFFSETS + SWEEP_WIDTH - 2)
    job["argv"][job["argv"].index("--omega-start") + 1] = f"{SWEEP_START:.2f}"
    job["argv"][job["argv"].index("--omega-stop") + 1] = f"{last:.2f}"
    _child(job, outdir)
    header, rows = read_rows(WORKLOADS["sweep"].output(job, 0))
    lines = [",".join(header)] + [",".join(r) for r in rows]
    (REFERENCE_DIR / "sweep.csv").write_text("\n".join(lines) + "\n")

    ring, replay = ["center,expansion,m,s,n_s"], ["center,expansion,m,s,n_s"]
    for center in CENTRES:
        outdir = work / f"ring{center:g}"
        outdir.mkdir(parents=True)
        job = WORKLOADS["ring_packet"].job(_seed_for(WORKLOADS["ring_packet"], center),
                                           False, outdir)
        _child(job, outdir)
        periods, sites, values = evolve_array(WORKLOADS["ring_packet"].output(job, 0))
        ring += _population_rows(center, 0, periods, sites, values, RING_PERIODS)

        outdir = work / f"replay{center:g}"
        outdir.mkdir(parents=True)
        job = WORKLOADS["replay"].job(_seed_for(WORKLOADS["replay"], center), False, outdir)
        _child(job, outdir)
        data = np.load(WORKLOADS["replay"].output(job, 0))
        for label, key in enumerate(("full", "two_band")):
            replay += _population_rows(center, label, data["periods"], data["sites"],
                                       data[key], REPLAY_PERIODS)
    (REFERENCE_DIR / "ring16.csv").write_text("\n".join(ring) + "\n")
    (REFERENCE_DIR / "replay.csv").write_text("\n".join(replay) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
