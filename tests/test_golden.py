"""Golden digests of every subcommand's outputs.

Each case runs the CLI on a small configuration (512 substeps, horizon 3,
two or three frequencies) and compares the sha256 of every CSV and
``.meta.json`` it writes with recorded digests.  The numerics are
deterministic on a given BLAS build, so a refactor that keeps the
arithmetic keeps these bytes; a change that moves the numerics must
re-record them and say why.

Each command runs ``cli.main`` in a child interpreter with BLAS pinned to
one thread, because the last bits of a matrix product depend on the thread
count (the digests differ between one and two OpenBLAS threads).
``--outdir out`` under a fresh working directory keeps ``outdir`` and so
``config_hash`` constant.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import driven_lattice

RUN_CLI = "import sys; from driven_lattice import cli; sys.exit(cli.main(sys.argv[1:]))"
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

FAST = ["--substeps", "512", "--outdir", "out"]
GRID = ["--omega-start", "2.70", "--omega-stop", "2.74", "--omega-step", "0.02"]

CASES = {
    # a 3-cell ring exercises the kappa ladder, band matching and the cell DFT
    "evolve": [["evolve", *FAST, "--horizon", "3", "--domain", "ring",
                "--supercells", "3", "--sigma", "8"]],
    "spectrum": [["spectrum", *FAST, *GRID]],
    "sweep": [["sweep", *FAST, "--horizon", "3", *GRID]],
    "modes": [["modes", *FAST, "--omega", "2.74", "--kappa", "0.1", "--count", "5"]],
    "resonances": [
        ["sweep", *FAST, "--horizon", "3", *GRID, "--overlap-only"],
        ["resonances", *FAST, "--sweep-csv", "out/sweep.csv", "--alpha-max", "12"],
    ],
}

DIGESTS = {
    "evolve": {
        "evolve.csv":
            "eecf2276b6fc78da80216fa6eeb35fc3590430d30d6bba259bb4d7450eee32e9",
        "evolve.csv.meta.json":
            "940741a0eb20fc7a35282346f6cd987ea7758281ab474eb4c630d17efca7f7ef",
    },
    "spectrum": {
        "spectrum.csv":
            "929452747991370202addb17e3279cae8b9836a7f2dc3ab949daac136a060467",
        "spectrum.csv.meta.json":
            "d17480f44ad91f0a5f7bda03b954b6f0cf17e18adc779c03ac1524c9ca496f76",
    },
    "sweep": {
        "sweep.csv":
            "c5885ffebc3db49b08dda1cc75f821e478b8f9bd1efaf7ea2563082f7d8b29dd",
        "sweep.csv.meta.json":
            "a9af1a78e4ec7548661d4ad2c84df9de605883111e34cdb6e7c1eef6bc8d8f00",
    },
    "modes": {
        "modes.csv":
            "268386fbe01d200e579209c94a2b9be6df7d40e1ff78fde0d354b5f549fb1096",
        "modes.csv.meta.json":
            "0fdfeec3ddbd1a3c5dff30975c0c165d4c147328d2de73631cd55dcb738fdf32",
    },
    "resonances": {
        "resonances.csv":
            "61f48e02e886dadf8cc542814699e81a89150f6a0c3128c2192bdca31b76065b",
        "resonances.csv.meta.json":
            "32b789b4c535439324bd20292720bb5d627b908cfc5c7831206d53b4180e95d9",
        "sweep.csv":
            "e91b75d99272c378373fe3ece760ce7e8fcc2f726291be5455e92aaf400e84dd",
        "sweep.csv.meta.json":
            "a9af1a78e4ec7548661d4ad2c84df9de605883111e34cdb6e7c1eef6bc8d8f00",
    },
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_outputs_match_golden_digests(command, tmp_path):
    src = str(Path(driven_lattice.__file__).resolve().parents[1])
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": src}
    for argv in CASES[command]:
        run = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], cwd=tmp_path,
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "out").iterdir())
    }
    assert digests == DIGESTS[command]
