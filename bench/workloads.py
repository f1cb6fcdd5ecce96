"""The four benchmark workloads: inputs made from a seed, and output checks.

Each workload turns ``(seed, smoke)`` into a JSON job for one child process
(``child.py``), says how much work one operation is, and checks the files
each operation wrote.  A child runs the same operation several times after
one set-up; ``{op}`` in a job's argv stands for the operation's index, so
every operation writes its own output.  The checks run in the harness,
outside the timed part, and never import the package under test.

Tolerances (each no looser than the acceptance criteria and no tighter than
the scheme's own time-step error, about 1e-7 in quasienergy at omega = 1):

* ``POPULATION_TOL`` 1e-3 per site: the Floquet-vs-direct bound of
  acceptance criterion 5.  A time-step-level change in quasienergy (1e-7)
  moves populations by up to ~1e-4 over 400 periods, so a tighter bound
  would reject numerically legitimate changes.
* ``SPECTRAL_TOL`` 1e-6 on quasienergies, gaps and ground-mode overlaps:
  ten times the time-step error at omega = 1 (it is 3e-9 at omega = 2.74).
* ``TOTAL_TOL`` 1e-4 on the total site population of a mode expansion: the
  library's decomposition residual limit; the norm outside the basis is
  missing from every later frame.
* ``DIRECT_TOTAL_TOL`` 1e-6 on the total population of direct integration:
  the library's normalisation tolerance; the split step is unitary.
* ``RESIDUAL_TOL`` 1e-4: the library's decomposition residual limit.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

POPULATION_TOL = 1e-3
SPECTRAL_TOL = 1e-6
TOTAL_TOL = 1e-4
DIRECT_TOTAL_TOL = 1e-6
RESIDUAL_TOL = 1e-4

SIGMA = 20.0 * math.pi

# scripts/reference.cfg, written out by the benchmark so that the program
# sees only generated inputs; `center` and `outdir` are set per job.
RING16 = {
    "mass": 1.0, "hbar": 1.0, "v0": 1.0, "delta": 0.5, "spacing": 10.0,
    "amplitude": 1.0, "omega": 1.0, "phases": "0,pi,0", "np": 3,
    "sigma": SIGMA, "center": 240.0, "domain": "ring", "supercells": 16,
    "substeps": 2048, "horizon": 400, "omega_start": 2.4, "omega_stop": 3.2,
    "omega_step": 0.01, "outdir": "out",
}
# Site-aligned centres (multiples of L/2) that keep the sigma = 20 pi packet
# inside the 480-long ring's seam tolerance: a site centre, a barrier, and
# the next site centre.  Tiny runs use a 2-supercell ring and sigma = 5.
CENTRES = (240.0, 235.0, 245.0)
SMOKE_CENTRES = (30.0, 25.0, 35.0)
SMOKE_RING = {"supercells": 2, "sigma": 5.0, "substeps": 256}

# The sweep window starts at 2.80 + 0.01 k.  Every window lies inside the
# band 2.742 < omega <= 2.965 where the default basis is 53 modes, so the
# cost of a window changes only with its substep count (2048 omega, 2% over
# the offsets) and the seed hardly moves the timing.  One frequency per
# operation gives several operations, and so a median, in every run.
SWEEP_START = 2.80
SWEEP_OFFSETS = 6
SWEEP_STEP = 0.01
SWEEP_WIDTH = 1
SWEEP_HORIZON = 400

DIRECT_PERIODS = 2
REPLAY_OMEGA = 2.74
REPLAY_SUBSTEPS = 256
REPLAY_HORIZON = 200
REPLAY_BANDS = (0, 1)


def op_name(op: int) -> str:
    return f"{op:03d}"


def _config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def _ring_values(seed: int, smoke: bool, outdir: Path) -> dict:
    values = dict(RING16, outdir=str(outdir))
    centres = SMOKE_CENTRES if smoke else CENTRES
    values["center"] = centres[random.Random(seed).randrange(len(centres))]
    if smoke:
        values.update(SMOKE_RING, horizon=1)
    return values


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a package CSV; the '#' header block (which
    carries the output directory through config_hash) is skipped."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _read_reference(name: str) -> tuple[list[str], np.ndarray]:
    header, rows = read_rows(REFERENCE_DIR / name)
    return header, np.array(rows, dtype=float)


class Workload:
    name = ""
    unit = ""          # what one unit of `units_per_op` is
    kind = "cli"       # "cli": cli.main(argv); "replay": library route
    attempt_unit = "operations"
    ops_per_child = 1  # timed operations after one set-up of a traced run

    def job(self, seed: int, smoke: bool, outdir: Path) -> dict:
        raise NotImplementedError

    def output(self, job: dict, op: int) -> Path:
        """The file operation ``op`` of the child writes."""
        return Path(job["output"].replace("{op}", op_name(op)))

    def units_per_op(self, job: dict) -> int:
        raise NotImplementedError

    def attempts(self, job: dict) -> int:
        """What one operation attempts, as counted in attempted/failed."""
        return 1

    def check(self, job: dict, smoke: bool, op: int) -> tuple[int, list[str]]:
        """(failed, problems) for operation ``op`` of a finished child;
        ``failed`` counts in the unit of ``attempts``."""
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"
    unit = "frequencies"
    attempt_unit = "frequencies"

    def job(self, seed, smoke, outdir):
        k = random.Random(seed).randrange(SWEEP_OFFSETS)
        start = round(SWEEP_START + SWEEP_STEP * k, 2)
        stop = round(start + SWEEP_STEP * (SWEEP_WIDTH - 1), 2)
        horizon = 10 if smoke else SWEEP_HORIZON
        argv = [
            "sweep", "--omega-start", f"{start:.2f}", "--omega-stop", f"{stop:.2f}",
            "--omega-step", f"{SWEEP_STEP:.2f}", "--domain", "supercell",
            "--sigma", "0", "--horizon", str(horizon),
            "--no-refine", "--workers", "1", "--outdir", str(outdir / "{op}"),
        ]
        if smoke:
            argv += ["--substeps", "256"]
        omegas = [start + SWEEP_STEP * i for i in range(SWEEP_WIDTH)]
        return {"kind": self.kind, "argv": argv, "omegas": omegas, "horizon": horizon,
                "ops": self.ops_per_child, "output": str(outdir / "{op}" / "sweep.csv")}

    def units_per_op(self, job):
        return len(job["omegas"])

    attempts = units_per_op

    def check(self, job, smoke, op):
        problems = []
        path = self.output(job, op)
        header, rows = read_rows(path)
        data = [{k: float(x) for k, x in zip(header, r)} for r in rows]
        failures = _sidecar_failures(path)
        failed = 0
        reference = None if smoke else _read_reference("sweep.csv")
        for omega in job["omegas"]:
            row = next((r for r in data if abs(r["omega"] - omega) < 1e-9), None)
            bad = _sweep_row_problems(omega, row, failures, reference, job["horizon"])
            if bad:
                failed += 1
                problems += bad
        if len(rows) != len(job["omegas"]):
            problems.append(f"sweep wrote {len(rows)} rows for {len(job['omegas'])} frequencies")
            failed = max(failed, 1)
        return failed, problems


def _sidecar_failures(csv_path: Path) -> list:
    meta = json.loads(Path(str(csv_path) + ".meta.json").read_text())
    return meta["failures"]


def _sweep_row_problems(omega, v, failures, reference, horizon) -> list[str]:
    at = f"omega={omega:.2f}"
    if any(abs(f["omega"] - omega) < 1e-9 for f in failures):
        return [f"{at}: recorded as a sweep failure"]
    if v is None:
        return [f"{at}: no row written"]
    bad = []
    if not (0.0 < v["n_max"] <= 1.0 + TOTAL_TOL):
        bad.append(f"{at}: n_max {v['n_max']} outside (0, 1]")
    if not (0.0 <= v["overlap"] <= 1.0 + SPECTRAL_TOL):
        bad.append(f"{at}: overlap {v['overlap']} outside [0, 1]")
    if not (v["gap"] > 0.0):
        bad.append(f"{at}: gap {v['gap']} not positive")
    if v["argmax_site"] not in (0.0, 1.0, 2.0) or not 0 <= v["argmax_m"] <= horizon:
        bad.append(f"{at}: argmax ({v['argmax_site']}, {v['argmax_m']}) out of range")
    if reference is not None:
        header, ref = reference
        match = ref[np.abs(ref[:, 0] - omega) < 1e-9]
        if len(match) != 1:
            return bad + [f"{at}: no reference row"]
        ref_row = dict(zip(header, match[0]))
        # argmax_* are not compared: near-equal maxima may swap under a
        # numerically legitimate change without any population moving.
        for column, tol in (("n_max", POPULATION_TOL), ("overlap", SPECTRAL_TOL),
                            ("eps_fgs", SPECTRAL_TOL), ("gap", SPECTRAL_TOL)):
            diff = abs(v[column] - ref_row[column])
            if not diff <= tol:
                bad.append(f"{at}: {column} differs from the reference by {diff:.3g} > {tol:g}")
    return bad


def _population_problems(values, total_tol, totals_exact=True):
    """Invariants of a (sites, periods) population array."""
    bad = []
    totals = values.sum(axis=0)
    if totals_exact:
        worst = float(np.max(np.abs(totals - 1.0)))
        if not worst <= total_tol:
            bad.append(f"total site population deviates from 1 by {worst:.3g} > {total_tol:g}")
    elif not (np.all(totals > 0.0) and np.all(totals <= 1.0 + total_tol)):
        bad.append("truncated expansion total outside (0, 1]")
    if not np.all(values >= -total_tol):
        bad.append("negative site population")
    return bad


def evolve_array(path: Path):
    """(periods, sites, populations[site, period]) from an evolve CSV."""
    header, rows = read_rows(path)
    data = np.array(rows, dtype=float)
    m, s, n = (data[:, header.index(c)] for c in ("m", "s", "n_s"))
    periods = np.unique(m).astype(int)
    sites = np.unique(s).astype(int)
    values = np.full((len(sites), len(periods)), np.nan)
    values[np.searchsorted(sites, s.astype(int)), np.searchsorted(periods, m.astype(int))] = n
    return periods, sites, values


def _compare_reference(name, key, periods, sites, values, labels=("",)):
    """Compare populations with reference rows ``key, label, m, s, n_s`` that
    exist for this key; returns problems."""
    header, ref = _read_reference(name)
    ref = ref[ref[:, 0] == key]
    bad = []
    compared = 0
    for li, label in enumerate(labels):
        part = ref[ref[:, 1] == li]
        for _, _, m, s, n in part:
            if m > periods[-1]:
                continue
            i, j = np.searchsorted(sites, s), np.searchsorted(periods, m)
            diff = abs(values[li][i, j] - n)
            compared += 1
            if not diff <= POPULATION_TOL:
                bad.append(f"{label or 'trace'} m={int(m)} s={int(s)}: differs from "
                           f"the reference by {diff:.3g} > {POPULATION_TOL:g}")
    if compared == 0:
        bad.append(f"no reference rows in {name} for key {key}")
    return bad[:5] + ([f"... {len(bad) - 5} more"] if len(bad) > 5 else [])


class RingPacket(Workload):
    name = "ring_packet"
    unit = "kappa-spectra"
    total_tol = TOTAL_TOL

    def job(self, seed, smoke, outdir):
        values = _ring_values(seed, smoke, outdir)
        cfg = outdir / "ring16.cfg"
        return {"kind": self.kind, "config": _config_text(values), "config_path": str(cfg),
                "argv": self.argv(cfg), "center": values["center"],
                "supercells": values["supercells"], "horizon": values["horizon"],
                "ops": self.ops_per_child, "output": str(outdir / "evolve{op}.csv")}

    def argv(self, cfg):
        return ["evolve", "--config", str(cfg), "--output", "evolve{op}.csv"]

    def units_per_op(self, job):
        return job["supercells"]

    def check(self, job, smoke, op):
        periods, sites, values = evolve_array(self.output(job, op))
        bad = self.shape_problems(job, periods, sites, values)
        if not bad:
            bad = _population_problems(values, self.total_tol)
            if not smoke:
                bad += _compare_reference("ring16.csv", job["center"], periods, sites, [values])
        return (self.attempts(job) if bad else 0), bad

    def shape_problems(self, job, periods, sites, values):
        want_periods = job["horizon"] + 1
        want_sites = 3 * job["supercells"]
        if (len(periods), len(sites)) != (want_periods, want_sites) or np.isnan(values).any():
            return [f"evolve wrote {values.shape} populations, expected "
                    f"({want_sites}, {want_periods})"]
        return []


class DirectRing(RingPacket):
    """The same packet integrated directly: the oracle of the Floquet route.
    Its populations are checked against the Floquet reference of
    ring_packet, the comparison acceptance criterion 5 makes."""

    name = "direct_ring"
    unit = "periods"
    total_tol = DIRECT_TOTAL_TOL

    def job(self, seed, smoke, outdir):
        job = super().job(seed, smoke, outdir)
        job["horizon"] = 1 if smoke else DIRECT_PERIODS
        job["argv"] += ["--method", "direct", "--horizon", str(job["horizon"])]
        return job

    def units_per_op(self, job):
        return job["horizon"]


class Replay(Workload):
    """Library route of scripts/resonant_packet.py: spectra in set-up, then
    the decomposition and two population traces are timed."""

    name = "replay"
    unit = "frames"
    kind = "replay"
    # the spectra take 3.5 times as long as one operation, so one set-up
    # serves three operations in a traced run
    ops_per_child = 3

    def job(self, seed, smoke, outdir):
        centres = SMOKE_CENTRES if smoke else CENTRES
        center = centres[random.Random(seed).randrange(len(centres))]
        return {
            "kind": self.kind, "omega": REPLAY_OMEGA,
            "supercells": SMOKE_RING["supercells"] if smoke else 16,
            "sigma": SMOKE_RING["sigma"] if smoke else SIGMA,
            "center": center, "substeps": REPLAY_SUBSTEPS,
            "horizon": 1 if smoke else REPLAY_HORIZON, "bands": list(REPLAY_BANDS),
            "ops": self.ops_per_child,
            "output": str(outdir / "replay{op}.npz"),
        }

    def units_per_op(self, job):
        # a frame is one period of one expansion; two expansions are traced
        return 2 * (job["horizon"] + 1)

    def check(self, job, smoke, op):
        data = np.load(self.output(job, op))
        periods, sites = data["periods"], data["sites"]
        full, two = data["full"], data["two_band"]
        if full.shape != (3 * job["supercells"], job["horizon"] + 1) or two.shape != full.shape:
            return self.attempts(job), [f"replay traces have shape {full.shape}"]
        bad = []
        residual = float(data["residual"])
        if not residual < RESIDUAL_TOL:
            bad.append(f"decomposition residual {residual:.3g} >= {RESIDUAL_TOL:g}")
        bad += _population_problems(full, TOTAL_TOL)
        bad += _population_problems(two, TOTAL_TOL, totals_exact=False)
        if not smoke:
            bad += _compare_reference("replay.csv", job["center"], periods, sites,
                                      [full, two], labels=("full", "two_band"))
        return (self.attempts(job) if bad else 0), bad


WORKLOADS = {w.name: w for w in (Sweep(), RingPacket(), DirectRing(), Replay())}
