"""Single supercell with periodic boundaries (kappa = 0), uniform start.

Reproduces the few-mode analysis at omega = 1: the full population trace,
its 3- and 2-mode truncations (only the former keeps the slow oscillation),
and the sampled profiles of the best-converged modes.
"""

import pathlib
import sys

import numpy as np

import driven_lattice as dl

OUTDIR = pathlib.Path("out/single_cell")
HORIZON = 400


def main() -> int:
    config = dl.ExperimentConfig(
        lattice=dl.LatticeSpec(),
        initial=dl.UniformState(),
        domain="supercell",
        horizon=HORIZON,
        outdir=str(OUTDIR),
    )
    for bands, name in ((None, "full"), (range(3), "three_mode"), (range(2), "two_mode")):
        trace = dl.run_evolution(config, bands=bands)
        print(dl.write_evolution_csv(OUTDIR / f"trace_{name}.csv", config, trace))

    spectrum = dl.spectrum_at(config, config.lattice.omega)
    eps = spectrum.quasienergies
    print(
        "interference period of the (0, 2) pair:"
        f" {dl.interference_period(eps[2], eps[0], config.lattice):.2f} T"
    )
    weights = spectrum.uniform_weights()
    print("mode occupations (top 5):", np.round(weights[:5], 4))
    print(dl.write_modes_csv(OUTDIR / "modes.csv", config, spectrum))
    return 0


if __name__ == "__main__":
    sys.exit(main())
