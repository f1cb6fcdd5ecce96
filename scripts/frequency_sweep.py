"""Full driving-frequency sweep of the kappa = 0 supercell (long run).

Produces the maximal-site-population curve n_max(omega) over 400 periods,
the ground-mode uniform overlap, the gap to the nearest band, the
quasienergy spectrum versus omega, and the resonance comparison table.
Expect tens of minutes at the default 0.01 step.
"""

import pathlib
import sys

import driven_lattice as dl
from driven_lattice.cli import main as cli_main

OUTDIR = pathlib.Path("out/frequency_sweep")
START, STOP, STEP = 0.5, 6.0, 0.01


def main() -> int:
    config = dl.ExperimentConfig(
        lattice=dl.LatticeSpec(),
        initial=dl.UniformState(),
        domain="supercell",
        horizon=400,
        omega_start=START,
        omega_stop=STOP,
        omega_step=STEP,
        outdir=str(OUTDIR),
    )
    sweep = dl.run_nmax_sweep(config)
    sweep_path = dl.write_sweep_csv(OUTDIR / "sweep.csv", sweep)
    print(sweep_path)
    rows = dl.pair_resonances(config.lattice, sweep.column("omega"),
                              sweep.column("overlap"), alpha_max=20, max_folds=2)
    print(dl.write_resonances_csv(OUTDIR / "resonances.csv", config, rows))

    # quasienergy spectrum vs omega on a coarser grid (plot backdrop)
    return cli_main([
        "spectrum",
        "--omega-start", str(START), "--omega-stop", str(STOP),
        "--omega-step", "0.05",
        "--outdir", str(OUTDIR), "--output", "spectrum.csv",
    ])


if __name__ == "__main__":
    sys.exit(main())
