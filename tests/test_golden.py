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
            "c545f7f2e97b5bb61b6d7d831e0a062f9d2c32d7ec1c796c1052caf721953cf8",
        "evolve.csv.meta.json":
            "8120068f380e97563fa4714f84abb21a6b49f5f1a7f7d339e95d1faaf59fe5ce",
    },
    "spectrum": {
        "spectrum.csv":
            "62e8e7d74cd8e12d8b1978d1f98301c8ba73313e30bae9e59441abe3aa750481",
        "spectrum.csv.meta.json":
            "7aab98d60efe3612613d743adedc60f3a0ef3c6f1745dd4bb989edd137e7132c",
    },
    "sweep": {
        "sweep.csv":
            "d068fc4ae6ed12c4149e0596a59cb94e8ddb817a8ae39b739609268272caaf95",
        "sweep.csv.meta.json":
            "aa32f1f9cfaee9c1762d1ce1fab3a3142df2ca0396225e0f18e4bdfd1e838f88",
    },
    "modes": {
        "modes.csv":
            "6ae02346e1d6ded61e746e47176d8baf84c15684a61830a318506afa0bf15a12",
        "modes.csv.meta.json":
            "52e59bb47616a67cd5479cbcb9020292716bcb811fde6bb4af4862888d3ab3d9",
    },
    "resonances": {
        "resonances.csv":
            "61f48e02e886dadf8cc542814699e81a89150f6a0c3128c2192bdca31b76065b",
        "resonances.csv.meta.json":
            "8f1cc395a639e551db07391b7af9830b01dd76440fc4da7a238795cbf3560e21",
        "sweep.csv":
            "4e5c72d628624387e398b454bd5d9ea707abe2bd58a2e9eafe25538c543ace64",
        "sweep.csv.meta.json":
            "aa32f1f9cfaee9c1762d1ce1fab3a3142df2ca0396225e0f18e4bdfd1e838f88",
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
