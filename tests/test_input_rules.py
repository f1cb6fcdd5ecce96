"""Each input rule has one home, and every public entry point it guards
raises its one error and message before any costly work."""

import numpy as np
import pytest

import driven_lattice as dl
from driven_lattice import analysis, floquet, propagate

REF = dl.LatticeSpec()
FAST = dl.PropagationParams(substeps_per_period=512)
EDGE = REF.brillouin_edge
FAST_DRIVE = dl.LatticeSpec(omega=1e300)

# rule -> (error, message pattern)
RULES = {
    "grid resolves the basis": (dl.ConfigError, r"a cell grid of 40 points cannot resolve"),
    "cell matches the lattice": (dl.GridMismatchError,
                                 r"grid cell length 40 does not match the lattice supercell 30"),
    "kappa in the first zone": (dl.ConfigError, r"kappa outside the first Brillouin zone"),
    "basis odd and positive": (dl.ConfigError, r"basis_size must be odd and positive"),
    "band labels valid": (dl.ConfigError, r"need band labels in \[0, 41\)"),
    "kinetic cutoff": (dl.ConfigError, r"kinetic cutoff .* below 5\*max\(v0, hbar\*omega\)"),
    "drive period finite": (dl.ConfigError, r"omega 1e-320 gives no finite drive period "
                                            r"2\*pi/omega"),
    "substeps allocatable": (dl.ConfigError, r"^2048\d+ substeps per period cannot be "
                                             r"allocated$"),
    "basis allocatable": (dl.ConfigError, r"^a basis of 30\d+ modes cannot be allocated$"),
    "default count finite": (dl.ConfigError, r"^the default .* overflows a float$"),
}


def spectrum41():
    """A kappa = 0 spectrum of 41 modes, from no monodromy."""
    return dl.diagonalize_monodromy(np.eye(41), REF, 0.0)


def uniform_on(length, points):
    ring = dl.RingDomain(dl.SupercellGrid(length, points), 1)
    return dl.make_initial_state(dl.UniformState(), ring)


def config(lattice=REF, **kwargs):
    return dl.ExperimentConfig(lattice=lattice, initial=dl.UniformState(), substeps=512,
                               **kwargs)


def decomposition41():
    state = uniform_on(REF.cell_length, 480)
    return dl.SpectralDecomposition(spec=REF, ring=state.grid, spectra=(spectrum41(),),
                                    coefficients=np.ones((1, 41)), residual=0.0)


CASES = [
    ("grid resolves the basis", "sampled",
     lambda: spectrum41().sampled(dl.SupercellGrid(REF.cell_length, 40))),
    ("grid resolves the basis", "decompose",
     lambda: dl.decompose(uniform_on(REF.cell_length, 40), [spectrum41()])),
    ("grid resolves the basis", "run_evolution",
     # delta = 4 resolves the barrier on 40 points, too few for 41 plane waves
     lambda: dl.run_evolution(config(dl.LatticeSpec(delta=4.0), grid_points=40,
                                     basis_size=41))),
    ("cell matches the lattice", "sampled",
     lambda: spectrum41().sampled(dl.SupercellGrid(40.0, 480))),
    ("cell matches the lattice", "ring_spectra",
     lambda: dl.ring_spectra(REF, dl.RingDomain(dl.SupercellGrid(40.0, 480), 1))),
    ("cell matches the lattice", "decompose",
     lambda: dl.decompose(uniform_on(40.0, 480), [spectrum41()])),
    ("cell matches the lattice", "evolve_ring",
     lambda: dl.evolve_ring(uniform_on(40.0, 480), REF, FAST, REF.period)),
    ("cell matches the lattice", "direct_population_trace",
     lambda: dl.direct_population_trace(uniform_on(40.0, 480), REF, FAST, 1)),
    ("kappa in the first zone", "monodromy_matrix",
     lambda: dl.monodromy_matrix(REF, 1.5 * EDGE, FAST)),
    ("kappa in the first zone", "labeled_spectrum",
     lambda: dl.labeled_spectrum(REF, -1.5 * EDGE, params=FAST)),
    ("kappa in the first zone", "spectrum_at",
     lambda: dl.spectrum_at(config(), 1.0, 1.5 * EDGE)),
    ("kappa in the first zone", "evolve_ring",
     lambda: dl.evolve_ring(uniform_on(REF.cell_length, 480), REF, FAST, REF.period,
                            kappa=1.5 * EDGE)),
    ("basis odd and positive", "monodromy_matrix",
     lambda: dl.monodromy_matrix(REF, 0.0, FAST, basis_size=40)),
    ("basis odd and positive", "labeled_spectrum",
     lambda: dl.labeled_spectrum(REF, 0.0, params=FAST, basis_size=0)),
    ("basis odd and positive", "ring_spectra",
     lambda: dl.ring_spectra(REF, uniform_on(REF.cell_length, 480).grid, basis_size=-3)),
    ("basis odd and positive", "ExperimentConfig",
     lambda: config(basis_size=52)),
    ("band labels valid", "select_bands",
     lambda: dl.select_bands(decomposition41(), [0, 41])),
    ("band labels valid", "run_evolution",
     lambda: dl.run_evolution(config(basis_size=41), bands=())),
    ("kinetic cutoff", "monodromy_matrix",
     lambda: dl.monodromy_matrix(REF, 0.0, FAST, basis_size=21)),
    ("kinetic cutoff", "labeled_spectrum",
     lambda: dl.labeled_spectrum(REF, 0.0, params=FAST, basis_size=21)),
    ("kinetic cutoff", "ring_spectra",
     lambda: dl.ring_spectra(REF, uniform_on(REF.cell_length, 480).grid, basis_size=21)),
    ("drive period finite", "ExperimentConfig",
     lambda: config(omega_start=1e-320, omega_stop=1e-319, omega_step=1e-320)),
    # omega = 1e300 asks 2048 omega default substeps and a default basis of 3e151
    ("substeps allocatable", "run_evolution",
     lambda: dl.run_evolution(
         dl.ExperimentConfig(lattice=FAST_DRIVE, initial=dl.UniformState(), horizon=1),
         method="direct")),
    ("basis allocatable", "labeled_spectrum",
     lambda: dl.labeled_spectrum(FAST_DRIVE, 0.0)),
    # 5 hbar omega and 2048 omega are inf
    ("default count finite", "labeled_spectrum",
     lambda: dl.labeled_spectrum(dl.LatticeSpec(omega=1e308), 0.0)),
    ("default count finite", "run_evolution",
     lambda: dl.run_evolution(
         dl.ExperimentConfig(lattice=dl.LatticeSpec(omega=1e305), initial=dl.UniformState(),
                             horizon=1),
         method="direct")),
]


@pytest.mark.parametrize("rule, call", [(rule, call) for rule, _, call in CASES],
                         ids=[f"{rule}-{entry}" for rule, entry, _ in CASES])
def test_each_rule_raises_its_one_message(rule, call, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("input must be rejected before the work it guards")

    # the ring spectra of run_evolution and the potential factors of every
    # integrator are the work each rule guards
    monkeypatch.setattr(analysis, "ring_spectra", no_work)
    monkeypatch.setattr(floquet, "_potential_coefficients", no_work)
    monkeypatch.setattr(propagate, "potential", no_work)
    error, message = RULES[rule]
    with pytest.raises(error, match=message):
        call()
