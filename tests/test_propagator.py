import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft as sfft

import driven_lattice as dl

REF = dl.LatticeSpec()
FAST = dl.PropagationParams(substeps_per_period=512)


def smooth_state(grid, seed=7, modes=6):
    """Normalized superposition of a few low plane waves."""
    rng = np.random.default_rng(seed)
    x = grid.positions()
    psi = np.zeros(grid.points, dtype=complex)
    for n in range(-modes, modes + 1):
        k = 2 * math.pi * n / grid.length
        psi += (rng.normal() + 1j * rng.normal()) * np.exp(1j * k * x)
    return dl.ComplexState(psi, grid).normalized()


def state_distance(a, b):
    return math.sqrt(np.sum(np.abs(a.psi - b.psi) ** 2) * a.grid.dx)


class TestParams:
    def test_substep_floor(self):
        with pytest.raises(ValueError):
            dl.PropagationParams(substeps_per_period=128)

    def test_default_scaling(self):
        assert dl.default_params(REF).substeps_per_period == 2048
        assert dl.default_params(replace(REF, omega=2.74)).substeps_per_period == 5612
        assert dl.default_params(replace(REF, omega=0.5)).substeps_per_period == 2048


class TestTwisted:
    def test_free_plane_wave_acquires_kinetic_phase(self):
        spec = dl.LatticeSpec(v0=0.0)
        grid = dl.SupercellGrid.for_spec(spec, 512)
        x = grid.positions()
        k = 2 * math.pi * 5 / spec.cell_length
        kappa = 0.4 * spec.brillouin_edge
        state = dl.ComplexState(np.exp(1j * (k + kappa) * x) / math.sqrt(30.0), grid)
        evolved = dl.evolve_twisted(state, kappa, spec, FAST, spec.period)
        phase = np.exp(-1j * spec.hbar * (k + kappa) ** 2 * spec.period / (2 * spec.mass))
        assert state_distance(evolved, dl.ComplexState(phase * state.psi, grid)) < 1e-10

    def test_static_lattice_conserves_energy(self):
        # <H> drift is dt^2-limited (~5e-8 at 2048 substeps), so this runs at
        # 8192 substeps on the coarsest grid that still resolves the barrier
        spec = dl.LatticeSpec(amplitude=0.0)
        grid = dl.SupercellGrid.for_spec(spec, 256)
        state = dl.make_initial_state(dl.GaussianState(15.0, 3.0), grid)
        params = dl.PropagationParams(substeps_per_period=8192)

        def energy(st):
            k = 2 * math.pi * sfft.fftfreq(grid.points, grid.dx)
            ft = sfft.fft(st.psi)
            kinetic = np.sum(
                spec.hbar**2 * k**2 / (2 * spec.mass) * np.abs(ft) ** 2
            ) * grid.dx / grid.points
            v = dl.potential_on_grid(grid, 0.0, spec)
            return kinetic + np.sum(v * np.abs(st.psi) ** 2) * grid.dx

        initial = energy(state)
        evolved = state
        worst = 0.0
        for _ in range(100):
            evolved = dl.evolve_twisted(evolved, 0.0, spec, params, spec.period)
            worst = max(worst, abs(energy(evolved) - initial))
        assert worst < 1e-8

    def test_norm_preserved_over_forty_periods(self):
        grid = dl.SupercellGrid.for_spec(REF, 512)
        rng = np.random.default_rng(3)
        state = dl.ComplexState(
            rng.normal(size=512) + 1j * rng.normal(size=512), grid
        ).normalized()
        evolved = dl.evolve_twisted(state, 0.0, REF, dl.default_params(REF), 40 * REF.period)
        assert abs(evolved.norm() - 1.0) < 1e-8

    def test_rejects_bad_arguments(self):
        grid = dl.SupercellGrid.for_spec(REF, 512)
        state = dl.make_initial_state(dl.UniformState(), grid)
        with pytest.raises(ValueError, match="Brillouin"):
            dl.evolve_twisted(state, 2 * REF.brillouin_edge, REF, FAST, 1.0)
        with pytest.raises(ValueError, match="duration"):
            dl.evolve_twisted(state, 0.0, REF, FAST, 0.0)
        ring = dl.RingDomain(grid, 2)
        ring_state = dl.make_initial_state(dl.UniformState(), ring)
        with pytest.raises(dl.GridMismatchError):
            dl.evolve_twisted(ring_state, 0.0, REF, FAST, 1.0)
        with pytest.raises(dl.GridMismatchError):
            dl.evolve_ring(state, REF, FAST, 1.0)


class TestRing:
    def test_free_gaussian_dispersion(self):
        # oracle: free Gaussian width grows as sigma sqrt(1 + (hbar t / m sigma^2)^2)
        spec = dl.LatticeSpec(v0=0.0)
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(spec, 480), 8)
        sigma0, center, t = 4.0, 120.0, 16.0
        state = dl.make_initial_state(dl.GaussianState(center, sigma0), ring)
        evolved = dl.evolve_ring(state, spec, dl.default_params(spec), t)
        x = ring.positions()
        rho = np.abs(evolved.psi) ** 2 * ring.dx
        mean = np.sum(x * rho)
        density_std = math.sqrt(np.sum((x - mean) ** 2 * rho))
        # |psi|^2 of an exp(-x^2 / 2 sigma^2) packet has std sigma / sqrt(2)
        sigma_t = sigma0 * math.sqrt(1.0 + (spec.hbar * t / (spec.mass * sigma0**2)) ** 2)
        assert density_std * math.sqrt(2.0) == pytest.approx(sigma_t, rel=1e-6)

    def test_equal_phases_keep_sites_balanced(self):
        spec = dl.LatticeSpec(phases=(0.0, 0.0, 0.0))
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(spec, 480), 4)
        state = dl.make_initial_state(dl.UniformState(), ring)
        evolved = dl.evolve_ring(state, spec, dl.default_params(spec), 3 * spec.period)
        pops = dl.site_populations(evolved, spec, require_aligned=True)
        assert np.abs(pops - pops[0]).max() < 1e-10

    def test_twist_consistency_with_ring(self):
        # a Bloch state commensurate with the ring evolves identically both ways
        cells = 3
        cell = dl.SupercellGrid.for_spec(REF, 480)
        ring = dl.RingDomain(cell, cells)
        kappa = 2 * math.pi / ring.length
        periodic = smooth_state(cell, seed=11, modes=4).psi
        cell_state = dl.ComplexState(
            periodic * np.exp(1j * kappa * cell.positions()), cell
        ).normalized()
        ring_state = dl.ComplexState(
            np.tile(periodic, cells) * np.exp(1j * kappa * ring.positions()), ring
        ).normalized()
        a = dl.evolve_twisted(cell_state, kappa, REF, FAST, REF.period)
        b = dl.evolve_ring(ring_state, REF, FAST, REF.period)
        diff = b.psi[: cell.points] * math.sqrt(cells) - a.psi
        assert math.sqrt(np.sum(np.abs(diff) ** 2) * cell.dx) < 1e-9

    def test_matches_tiled_potential_loop(self):
        # test-local copy of the split step that tiles the potential over the
        # ring at every substep; the cell-broadcast phase must not change a bit
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 3)
        state = dl.make_initial_state(dl.GaussianState(45.0, 5.0), ring)
        n = FAST.substeps_per_period
        dt = REF.period / n
        k = 2 * math.pi * sfft.fftfreq(ring.points, ring.dx)
        kin_half = np.exp(-1j * REF.hbar * k**2 * dt / (4.0 * REF.mass))
        kin_full = kin_half * kin_half
        u = sfft.ifft(sfft.fft(state.psi) * kin_half)
        for j in range(n):
            v = dl.potential_on_grid(ring, (j + 0.5) * dt, REF)
            u = u * np.exp(-1j * v * dt / REF.hbar)
            u = sfft.ifft(sfft.fft(u) * (kin_full if j < n - 1 else kin_half))
        evolved = dl.evolve_ring(state, REF, FAST, REF.period)
        assert np.array_equal(evolved.psi, u)


class TestNumerics:
    def test_forward_backward_round_trip(self):
        # time reversal: conjugate the state and drive with negated phases
        grid = dl.SupercellGrid.for_spec(REF, 480)
        state = dl.make_initial_state(dl.GaussianState(15.0, 3.0), grid)
        params = dl.default_params(REF)
        forward = dl.evolve_twisted(state, 0.0, REF, params, REF.period)
        reversed_spec = replace(REF, phases=tuple(-p for p in REF.phases))
        back = dl.evolve_twisted(
            dl.ComplexState(forward.psi.conj(), grid), 0.0, reversed_spec, params, REF.period
        )
        returned = dl.ComplexState(back.psi.conj(), grid)
        assert state_distance(returned, state) < 1e-8

    def test_second_order_convergence(self):
        # each error measured against its own 4x-resolved reference
        grid = dl.SupercellGrid.for_spec(REF, 480)
        state = smooth_state(grid)

        def error(substeps):
            coarse = dl.evolve_twisted(
                state, 0.0, REF, dl.PropagationParams(substeps_per_period=substeps), REF.period
            )
            fine = dl.evolve_twisted(
                state, 0.0, REF, dl.PropagationParams(substeps_per_period=4 * substeps), REF.period
            )
            return state_distance(coarse, fine)

        ratio = error(256) / error(512)
        assert 3.2 < ratio < 4.8

    def test_potential_tiling_matches_direct_evaluation(self):
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 4)
        t = 1.234
        tiled = dl.potential_on_grid(ring, t, REF)
        direct = dl.potential(ring.positions(), t, REF)
        assert np.abs(tiled - direct).max() < 1e-13
