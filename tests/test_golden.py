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

``python tests/test_golden.py`` runs every case the same way and prints the
``DIGESTS`` literal, to paste here when a change re-records them.

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

SRC = Path(__file__).resolve().parents[1] / "src"
RUN_CLI = "import sys; from driven_lattice import cli; sys.exit(cli.main(sys.argv[1:]))"
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

FAST = ["--substeps", "512", "--outdir", "out"]
GRID = ["--omega-start", "2.70", "--omega-stop", "2.74", "--omega-step", "0.02"]
# holds the overlap dip at 2.671 that band 11's one-fold prediction 2.654 pairs with
RESONANCE_GRID = ["--omega-start", "2.65", "--omega-stop", "2.69", "--omega-step", "0.01"]

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
        ["sweep", *FAST, "--horizon", "3", *RESONANCE_GRID, "--overlap-only"],
        ["resonances", *FAST, "--sweep-csv", "out/sweep.csv", "--alpha-max", "12"],
    ],
}

DIGESTS = {
    "evolve": {
        "evolve.csv":
            "8b4891275b05cda74f596a2d337076afaa0525f83eedae09001557231643b99b",
        "evolve.csv.meta.json":
            "9637e11b8944f93d67c57dae7bd17a57ebd5323f70ad173c2bd97c3ff47dd7be",
    },
    "evolve_direct": {
        "evolve.csv":
            "395c309122f65e2f68277d0b03dc886ee0156dc2da4c5e3df20d943689d805d9",
        "evolve.csv.meta.json":
            "51165c588fd9406b5cbe9160689a58c31ac5e28f1d7f3e6893e579acafb485ab",
    },
    "modes": {
        "modes.csv":
            "0860ac61721c4703bfa455e7a0d5c458f1368214ac9cc8e5f6c4f9f10f895b38",
        "modes.csv.meta.json":
            "eef079529fcee5f15de341bdabe13cce65baa5f8580af8bb56b35e7dec7cf616",
    },
    "modes_static": {
        "modes.csv":
            "5b3cec464ffb226a47ab81d2286d7bb9b4d37b8b0806e219e2e0c2c654ad362c",
        "modes.csv.meta.json":
            "3e219dd349a6e8a8cc6c3f71c2aac66445b65cabd469ec1463fe7ce7903959e3",
    },
    "resonances": {
        "resonances.csv":
            "86c595ffb3e68d54e16f4d1ae2a2ef0b3e00445cd4438793bfac66eaa15f7f67",
        "resonances.csv.meta.json":
            "32b789b4c535439324bd20292720bb5d627b908cfc5c7831206d53b4180e95d9",
        "sweep.csv":
            "3b2ea5ca9f02626cc1ffc287e14e107f913a5617019ed634f87093b0da716249",
        "sweep.csv.meta.json":
            "532954345b6cd303d49ce9250183ccd9033a1effe29c27150ddd559e8e483644",
    },
    "spectrum": {
        "spectrum.csv":
            "59ca824985c3e9df10dda7481af9f2dce6d461fd78816429f69baacff39297b2",
        "spectrum.csv.meta.json":
            "207ecce368eda346f6117581585ba9ae34251e35ca66940261db1941047e45a5",
    },
    "sweep": {
        "sweep.csv":
            "3648f4e5b9417a0c6e3095a652bdb703f8e939bec34f8cf5a66f36d382e460dd",
        "sweep.csv.meta.json":
            "f84ae1e146fbe6b5f5d6f02e125f81da0a12a601402357b9d701d111c7e744de",
    },
}


README = Path(__file__).resolve().parents[1] / "README.md"


def run_case(command: str, workdir: Path) -> Path:
    """Run a case's commands in a child interpreter on one BLAS thread, in
    the fresh directory `workdir`; the directory of its outputs."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(SRC)}
    for argv in CASES[command]:
        run = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], cwd=workdir,
                             env=env, capture_output=True, text=True)
        if run.returncode != 0:
            raise RuntimeError(f"{command}: exit {run.returncode}\n{run.stderr}")
    return workdir / "out"


def digests(outdir: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.iterdir())}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The output directory of a case, its commands run once per module."""
    done = {}

    def case(command):
        if command not in done:
            done[command] = run_case(command, tmp_path_factory.mktemp(command))
        return done[command]

    return case


def data_rows(path: Path) -> list[str]:
    """The lines of a CSV below its header comments and column line."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")][1:]


@pytest.mark.parametrize("command", sorted(CASES))
def test_outputs_match_golden_digests(command, outputs):
    # a digest of a bare header would pin none of the writer's rows
    for path in sorted(outputs(command).glob("*.csv")):
        assert data_rows(path), path.name
    assert digests(outputs(command)) == DIGESTS[command]


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


if __name__ == "__main__":
    import tempfile

    print("DIGESTS = {")
    with tempfile.TemporaryDirectory() as tmp:
        for command in sorted(CASES):
            workdir = Path(tmp) / command
            workdir.mkdir()
            print(f'    "{command}": {{')
            for name, digest in digests(run_case(command, workdir)).items():
                print(f'        "{name}":\n            "{digest}",')
            print("    },")
    print("}")
