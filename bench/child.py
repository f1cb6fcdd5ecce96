"""One benchmark child process: set up, run one operation, report.

Usage: ``python3 bench/child.py JOB.json``.  The harness writes the job
(what to run, where to write, when it spawned the process) and reads the
result file named in it.  The child drives the package from outside only:
``driven_lattice.cli.main(argv)`` for the CLI workloads and the public
library API for ``replay``.  Set-up is interpreter start, the package
import and, for ``replay``, the ring spectra; the timed operations follow,
each timed alone and each writing its own output: ``"ops"`` of them, or,
when the job has a ``"deadline"`` (on the harness's monotonic clock), as
many as end within half an operation of it, at least one.  With
``"calibrate": true`` the child also times the fixed kernel of
``calibration.py`` right after set-up and after every operation.
With ``"trace": true`` the tracer wraps the package's public functions
right after the import, and the spans are written when the child ends.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def _setup(job: dict, dl):
    """Inputs of the operation, ready to run."""
    if job["kind"] == "cli":
        return None
    spec = dl.LatticeSpec(omega=job["omega"])
    ring = dl.RingDomain(dl.SupercellGrid.for_spec(spec, 480), job["supercells"])
    packet = dl.make_initial_state(
        dl.GaussianState(center=job["center"], width=job["sigma"]), ring)
    spectra, _ = dl.ring_spectra(
        spec, ring, params=dl.PropagationParams(substeps_per_period=job["substeps"]))
    return packet, spectra


def _for_op(text: str, op: int) -> str:
    """``text`` with the operation's index in place of ``{op}``."""
    return text.replace("{op}", f"{op:03d}")


def _operation(job: dict, dl, inputs, op: int):
    """The timed part; returns what the harness needs to check it."""
    if job["kind"] == "cli":
        return {"exit_code": dl.cli.main([_for_op(a, op) for a in job["argv"]])}
    packet, spectra = inputs
    periods = range(job["horizon"] + 1)
    dec = dl.decompose(packet, spectra)
    full = dl.population_trace(dec, periods)
    two_band = dl.population_trace(dl.select_bands(dec, job["bands"]), periods)
    return {"arrays": (dec.residual, full, two_band)}


def _save_replay(job: dict, op: int, arrays) -> None:
    import numpy as np
    residual, full, two_band = arrays
    np.savez(_for_op(job["output"], op), periods=full.periods, sites=full.site_indices,
             full=full.values, two_band=two_band.values, residual=residual)


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    import driven_lattice as dl
    from driven_lattice import analysis, cli, dynamics, floquet, lattice, propagate

    src = Path(job["src"]).resolve()
    if src not in Path(dl.__file__).resolve().parents:
        print(f"driven_lattice imported from {dl.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracing import OP_RUN_ID, Tracer, package_counters
        modules = {"lattice": lattice, "propagate": propagate, "floquet": floquet,
                   "dynamics": dynamics, "analysis": analysis, "cli": cli}
        tracer = Tracer()
        tracer.install(dl, modules, package_counters(modules))
    traced_from = time.perf_counter()
    inputs = _setup(job, dl)
    result = {"setup_s": time.monotonic() - job["spawned"], "wall_s": [],
              "calibration_s": [], "exit_codes": []}
    kernel_s = None
    if job.get("calibrate"):
        from calibration import kernel_s
        result["calibration_s"].append(kernel_s())
    deadline = job.get("deadline")
    outcomes, laps = [], []
    while True:
        op = len(outcomes)
        if tracer is not None:
            tracer.run_id = OP_RUN_ID + op
        start = time.perf_counter()
        outcomes.append(_operation(job, dl, inputs, op))
        end = time.perf_counter()
        result["wall_s"].append(end - start)
        if kernel_s is not None:
            result["calibration_s"].append(kernel_s())
        laps.append(time.perf_counter() - start)
        if deadline is None:
            if len(outcomes) >= job["ops"]:
                break
        elif time.monotonic() + statistics.median(laps) / 2 > deadline:
            break
    if tracer is not None:
        result["trace_wall_s"] = end - traced_from
    for op, outcome in enumerate(outcomes):
        if "arrays" in outcome:
            _save_replay(job, op, outcome["arrays"])
        else:
            result["exit_codes"].append(outcome["exit_code"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    if tracer is not None:
        Path(job["spans"]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
