"""Session-scoped fixtures shared between the unit and acceptance suites.

The heavier objects (frequency sweep over the resonance window, 16-supercell
ring decompositions) are built once per session; every test reads from the
same cache.
"""

import math
import os

import pytest
from hypothesis import settings

import driven_lattice as dl

# CI draws the same examples on every run and replays no saved failure:
# HYPOTHESIS_PROFILE=ci selects it
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def ref_spec():
    """Reference lattice: L=10, v0=1, delta=0.5, A=1, omega=1, phases (0, pi, 0)."""
    return dl.LatticeSpec()


@pytest.fixture(scope="session")
def grid480(ref_spec):
    return dl.SupercellGrid.for_spec(ref_spec, 480)


@pytest.fixture(scope="session")
def spectrum_w1(ref_spec):
    """Labeled kappa = 0 spectrum at omega = 1, default resolution."""
    return dl.labeled_spectrum(ref_spec, 0.0)


@pytest.fixture(scope="session")
def dec_w1_supercell(ref_spec, grid480, spectrum_w1):
    """Uniform state decomposed over the kappa = 0 modes (single supercell)."""
    ring = dl.RingDomain(grid480, 1)
    state = dl.make_initial_state(dl.UniformState(), ring)
    return dl.decompose(state, [spectrum_w1])


def gaussian_ring_state(spec, supercells=16, points=480, width=20 * math.pi):
    cell = dl.SupercellGrid.for_spec(spec, points)
    ring = dl.RingDomain(cell, supercells)
    center = math.floor(ring.length / (2 * spec.spacing)) * spec.spacing
    return dl.make_initial_state(dl.GaussianState(center, width), ring)


@pytest.fixture(scope="session")
def ring16_w1_dec(ref_spec):
    """sigma = 20 pi Gaussian on a 16-supercell ring at omega = 1."""
    state = gaussian_ring_state(ref_spec)
    spectra, _ = dl.ring_spectra(ref_spec, state.grid)
    return dl.decompose(state, spectra)


@pytest.fixture(scope="session")
def direct_trace_w1_100(ref_spec, ring16_w1_dec):
    """Brute-force reference populations for the omega = 1 Gaussian, 100 periods."""
    state = gaussian_ring_state(ref_spec)
    return dl.direct_population_trace(
        state, ref_spec, dl.default_params(ref_spec), max_period=100
    )


@pytest.fixture(scope="session")
def spec_resonant():
    return dl.LatticeSpec(omega=2.74)


@pytest.fixture(scope="session")
def ring16_w274_dec(spec_resonant):
    """sigma = 20 pi Gaussian on a 16-supercell ring at the resonant drive."""
    state = gaussian_ring_state(spec_resonant)
    spectra, _ = dl.ring_spectra(spec_resonant, state.grid)
    return dl.decompose(state, spectra)


@pytest.fixture(scope="session")
def ring16_w274_trace(ring16_w274_dec):
    return dl.population_trace(ring16_w274_dec, range(801))


@pytest.fixture(scope="session")
def sweep_window(ref_spec):
    """Production frequency sweep over the resonance window [2.4, 3.2]."""
    config = dl.ExperimentConfig(
        lattice=ref_spec,
        initial=dl.UniformState(),
        domain="supercell",
        horizon=400,
        omega_start=2.40,
        omega_stop=3.20,
        omega_step=0.01,
        refine_peaks=False,
    )
    return dl.run_nmax_sweep(config)
