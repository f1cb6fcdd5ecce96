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

The same outputs tie README's table of output columns to the writers: the
column line of every CSV must be its kind's row there.
"""

import hashlib
import os
import re
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
    # the direct split step: lattice.potential and the half-period phase table
    "evolve_direct": [["evolve", *FAST, "--horizon", "3", "--domain", "ring",
                       "--supercells", "3", "--sigma", "8", "--method", "direct"]],
    "spectrum": [["spectrum", *FAST, *GRID]],
    "sweep": [["sweep", *FAST, "--horizon", "3", *GRID]],
    "modes": [["modes", *FAST, "--omega", "2.74", "--kappa", "0.1", "--count", "5"]],
    # an undriven lattice: the exact route, whose sidecar records no substeps
    "modes_static": [["modes", *FAST, "--amplitude", "0", "--omega", "1.0", "--count", "3"]],
    "resonances": [
        ["sweep", *FAST, "--horizon", "3", *GRID, "--overlap-only"],
        ["resonances", *FAST, "--sweep-csv", "out/sweep.csv", "--alpha-max", "12"],
    ],
}

DIGESTS = {
    "evolve": {
        "evolve.csv":
            "b958c93994c3351d81057c612d4e25147d418684917e5fd724c639dde3ac8e77",
        "evolve.csv.meta.json":
            "57b00e5c117de1ce71ad3e8b83621715623ddf9e1354662e7bff0a5979b21320",
    },
    "evolve_direct": {
        "evolve.csv":
            "395c309122f65e2f68277d0b03dc886ee0156dc2da4c5e3df20d943689d805d9",
        "evolve.csv.meta.json":
            "51165c588fd9406b5cbe9160689a58c31ac5e28f1d7f3e6893e579acafb485ab",
    },
    "spectrum": {
        "spectrum.csv":
            "7d95430e9e18e8e5eaddde40e1dbe628c8cdad4440118fd6e1921edbe3763d04",
        "spectrum.csv.meta.json":
            "9bb4c2fc686b183b1aef8a504c80a7f4bfe2f2a2e2cea0a75bdb96ca2a13fb01",
    },
    "sweep": {
        "sweep.csv":
            "bd7f4be6724f37d3354adda9481226fc4cebfa92188f2bff679671741aca9d22",
        "sweep.csv.meta.json":
            "da2eb639757737b094e01210b12cc9e1ab0b69ecfa7b5e713a18e0f5fd877a5a",
    },
    "modes": {
        "modes.csv":
            "b6b095ac469451c2db2c532ee6268d48d4e241a84c19bc224e3041874f77a291",
        "modes.csv.meta.json":
            "a0b1b9885771483108e2688c00f4d64a3ca53edd25d6ca3c4b41c232a1a1edb0",
    },
    "modes_static": {
        "modes.csv":
            "e76b94bddab52e8c21b42635c08da2bc1705dee20b03275b436cfa3fde562595",
        "modes.csv.meta.json":
            "3e219dd349a6e8a8cc6c3f71c2aac66445b65cabd469ec1463fe7ce7903959e3",
    },
    "resonances": {
        "resonances.csv":
            "61f48e02e886dadf8cc542814699e81a89150f6a0c3128c2192bdca31b76065b",
        "resonances.csv.meta.json":
            "32b789b4c535439324bd20292720bb5d627b908cfc5c7831206d53b4180e95d9",
        "sweep.csv":
            "dfaf29fe7977cc64e5b56f16b8a66b6d40fe35e77e3424fe0815ea4345041098",
        "sweep.csv.meta.json":
            "da2eb639757737b094e01210b12cc9e1ab0b69ecfa7b5e713a18e0f5fd877a5a",
    },
}


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The output directory of a case, its commands run once per module."""
    src = str(Path(driven_lattice.__file__).resolve().parents[1])
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": src}
    done = {}

    def run_case(command):
        if command not in done:
            workdir = tmp_path_factory.mktemp(command)
            for argv in CASES[command]:
                run = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], cwd=workdir,
                                     env=env, capture_output=True, text=True)
                assert run.returncode == 0, run.stderr
            done[command] = workdir / "out"
        return done[command]

    return run_case


@pytest.mark.parametrize("command", sorted(CASES))
def test_outputs_match_golden_digests(command, outputs):
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outputs(command).iterdir())
    }
    assert digests == DIGESTS[command]


def readme_columns() -> dict[str, str]:
    """The README's `| kind | columns |` table: kind -> the CSV column line."""
    rows = re.findall(r"^\| (\w+) \| `([^`]*)`", README.read_text(), flags=re.MULTILINE)
    return {kind: columns.replace(", ", ",") for kind, columns in rows}


@pytest.mark.parametrize("command", sorted(CASES))
def test_csv_columns_match_the_readme_table(command, outputs):
    documented = readme_columns()
    for path in sorted(outputs(command).glob("*.csv")):
        lines = path.read_text().splitlines()
        kind = lines[0].split()[-1]  # "# driven-lattice <version> <kind>"
        columns = next(line for line in lines if not line.startswith("#"))
        assert columns == documented.get(kind), (path.name, kind)
