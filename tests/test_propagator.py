import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings, strategies as st

import driven_lattice as dl
from driven_lattice import propagate

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


def ring_loop(state, spec, params, duration, kappa=0.0):
    """Test-local full-ring split step: the potential tiled over the ring,
    its phase evaluated at every substep, and one ring FFT pair per
    substep."""
    ring = state.grid
    n = max(1, int(round(params.substeps_per_period * duration / spec.period)))
    dt = duration / n
    x = ring.positions()
    k = 2 * math.pi * sfft.fftfreq(ring.points, ring.dx)
    kin_half = np.exp(-1j * spec.hbar * (k + kappa) ** 2 * dt / (4.0 * spec.mass))
    kin_full = kin_half * kin_half
    u = state.psi if kappa == 0.0 else state.psi * np.exp(-1j * kappa * x)
    u = sfft.ifft(sfft.fft(u) * kin_half)
    for j in range(n):
        v = np.tile(dl.potential(ring.cell.positions(), (j + 0.5) * dt, spec),
                    ring.supercells)
        u = u * np.exp(-1j * v * dt / spec.hbar)
        u = sfft.ifft(sfft.fft(u) * (kin_full if j < n - 1 else kin_half))
    return u if kappa == 0.0 else u * np.exp(1j * kappa * x)


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
        grid = dl.RingDomain(dl.SupercellGrid.for_spec(spec, 512), 1)
        x = grid.positions()
        k = 2 * math.pi * 5 / spec.cell_length
        kappa = 0.4 * spec.brillouin_edge
        state = dl.ComplexState(np.exp(1j * (k + kappa) * x) / math.sqrt(30.0), grid)
        evolved = dl.evolve_ring(state, spec, FAST, spec.period, kappa=kappa)
        phase = np.exp(-1j * spec.hbar * (k + kappa) ** 2 * spec.period / (2 * spec.mass))
        assert state_distance(evolved, dl.ComplexState(phase * state.psi, grid)) < 1e-10

    def test_static_lattice_conserves_energy(self):
        # <H> drift is dt^2-limited (~5e-8 at 2048 substeps), so this runs at
        # 8192 substeps on the coarsest grid that still resolves the barrier
        spec = dl.LatticeSpec(amplitude=0.0)
        grid = dl.RingDomain(dl.SupercellGrid.for_spec(spec, 256), 1)
        state = dl.make_initial_state(dl.GaussianState(15.0, 3.0), grid)
        params = dl.PropagationParams(substeps_per_period=8192)

        def energy(st):
            k = 2 * math.pi * sfft.fftfreq(grid.points, grid.dx)
            ft = sfft.fft(st.psi)
            kinetic = np.sum(
                spec.hbar**2 * k**2 / (2 * spec.mass) * np.abs(ft) ** 2
            ) * grid.dx / grid.points
            v = dl.potential(grid.positions(), 0.0, spec)
            return kinetic + np.sum(v * np.abs(st.psi) ** 2) * grid.dx

        initial = energy(state)
        evolved = state
        worst = 0.0
        for _ in range(100):
            evolved = dl.evolve_ring(evolved, spec, params, spec.period)
            worst = max(worst, abs(energy(evolved) - initial))
        assert worst < 1e-8

    def test_norm_preserved_over_forty_periods(self):
        grid = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 512), 1)
        rng = np.random.default_rng(3)
        state = dl.ComplexState(
            rng.normal(size=512) + 1j * rng.normal(size=512), grid
        ).normalized()
        evolved = dl.evolve_ring(state, REF, dl.default_params(REF), 40 * REF.period)
        assert abs(evolved.norm() - 1.0) < 1e-8

    def test_rejects_bad_arguments(self):
        grid = dl.SupercellGrid.for_spec(REF, 512)
        state = dl.make_initial_state(dl.UniformState(), dl.RingDomain(grid, 1))
        with pytest.raises(ValueError, match="Brillouin"):
            dl.evolve_ring(state, REF, FAST, 1.0, kappa=2 * REF.brillouin_edge)
        for duration in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="duration"):
                dl.evolve_ring(state, REF, FAST, duration)
        # a state lives on a ring, and the ring's cell must be the lattice's
        with pytest.raises(dl.GridMismatchError):
            dl.ComplexState(state.psi, grid)
        other = dl.RingDomain(dl.SupercellGrid(2 * REF.cell_length, 512), 1)
        with pytest.raises(dl.GridMismatchError):
            dl.evolve_ring(dl.make_initial_state(dl.UniformState(), other), REF, FAST, 1.0)


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
        pops = dl.site_populations(evolved, spec)
        assert np.abs(pops - pops[0]).max() < 1e-10

    def test_twist_consistency_with_ring(self):
        # a Bloch state commensurate with the ring evolves identically both ways
        cells = 3
        grid = dl.SupercellGrid.for_spec(REF, 480)
        cell, ring = dl.RingDomain(grid, 1), dl.RingDomain(grid, cells)
        kappa = 2 * math.pi / ring.length
        periodic = smooth_state(cell, seed=11, modes=4).psi
        cell_state = dl.ComplexState(
            periodic * np.exp(1j * kappa * cell.positions()), cell
        ).normalized()
        ring_state = dl.ComplexState(
            np.tile(periodic, cells) * np.exp(1j * kappa * ring.positions()), ring
        ).normalized()
        a = dl.evolve_ring(cell_state, REF, FAST, REF.period, kappa=kappa)
        b = dl.evolve_ring(ring_state, REF, FAST, REF.period)
        diff = b.psi[: cell.points] * math.sqrt(cells) - a.psi
        assert math.sqrt(np.sum(np.abs(diff) ** 2) * cell.dx) < 1e-9

    def test_matches_tiled_potential_loop(self):
        # the cell-Bloch frame is the full-ring loop up to roundoff on a ring;
        # on one cell its cell DFT is the identity, so only the half-period
        # table of the reference drive, which serves substep j's mirror from
        # row j, is off by roundoff; a static drive's one phase is the same
        # bits as a phase per substep
        grid = dl.SupercellGrid.for_spec(REF, 480)
        static = replace(REF, amplitude=0.0)
        for spec, cells, kappa, tol in ((REF, 3, 0.0, 1e-12), (REF, 1, 0.0, 1e-13),
                                        (static, 1, 0.3 * REF.brillouin_edge, 0.0)):
            ring = dl.RingDomain(grid, cells)
            state = dl.make_initial_state(dl.GaussianState(15.0 * cells, 3.0), ring)
            evolved = dl.evolve_ring(state, spec, FAST, spec.period, kappa=kappa)
            u = ring_loop(state, spec, FAST, spec.period, kappa)
            if tol == 0.0:
                assert np.array_equal(evolved.psi, u)
            else:
                assert np.abs(evolved.psi - u).max() <= tol

    @pytest.mark.parametrize("duration", [1.0, 3.0, 1.37], ids=["1T", "3T", "1.37T"])
    def test_drive_without_time_reversal_runs_every_substep(self, duration):
        # no table: each substep evaluates its own phase, bitwise the loop
        spec = replace(REF, phases=(0.0, 1.0, 2.0))
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(spec, 480), 1)
        state = dl.make_initial_state(dl.GaussianState(15.0, 3.0), ring)
        kappa = 0.3 * spec.brillouin_edge
        evolved = dl.evolve_ring(state, spec, FAST, duration * spec.period, kappa=kappa)
        u = ring_loop(state, spec, FAST, duration * spec.period, kappa)
        assert np.array_equal(evolved.psi, u)

    @pytest.mark.parametrize(
        "phases, amplitude, duration, substeps, calls",
        [
            ((0.0, math.pi, 0.0), 1.0, 3.0, 512, 256),  # half a period's table
            ((0.0, math.pi, 0.0), 1.0, 2.0, 257, 129),  # odd: the middle row is its own mirror
            ((0.0, 0.0, math.pi), 1.0, 2.0, 256, 128),  # time reversal without the glide
            ((0.0, math.pi / 2, 0.0), 1.0, 2.0, 256, 512),  # the glide alone
            ((0.0, 1.0, 2.0), 1.0, 2.0, 256, 512),
            ((0.0, math.pi, 0.0), 1.0, 1.5, 256, 384),  # not whole periods
            ((0.0, math.pi, 0.0), 0.0, 3.0, 256, 1),  # static
        ],
        ids=["reference", "odd", "time-reversal", "glide", "asymmetric", "fractional", "static"],
    )
    def test_potential_evaluations_per_call(self, monkeypatch, phases, amplitude, duration,
                                            substeps, calls):
        spec = replace(REF, phases=phases, amplitude=amplitude)
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(spec, 240), 2)
        state = smooth_state(ring)
        counted = []
        potential = propagate.potential
        monkeypatch.setattr(propagate, "potential",
                            lambda *args: counted.append(args[1]) or potential(*args))
        params = dl.PropagationParams(substeps_per_period=substeps)
        dl.evolve_ring(state, spec, params, duration * spec.period)
        assert len(counted) == calls

    @pytest.mark.parametrize(
        "cells, substeps, zone, phases",
        [
            (1, 512, 0.0, (0.0, math.pi, 0.0)),
            (3, 512, 0.3, (0.0, math.pi, 0.0)),
            (2, 257, -0.7, (0.0, math.pi, 0.0)),  # odd substep count
            (3, 256, 1.0, (0.0, 0.0, math.pi)),
            (2, 256, 0.4, (0.0, 1.0, 2.0)),  # no table
        ],
    )
    def test_whole_periods_match_period_by_period_calls(self, cells, substeps, zone, phases):
        # one pass over three periods against three one-period calls
        spec = replace(REF, phases=phases)
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(spec, 240), cells)
        state = smooth_state(ring, seed=cells, modes=4 * cells)
        params = dl.PropagationParams(substeps_per_period=substeps)
        kappa = zone * spec.brillouin_edge
        stepped = state
        for _ in range(3):
            stepped = dl.evolve_ring(stepped, spec, params, spec.period, kappa=kappa)
        evolved = dl.evolve_ring(state, spec, params, 3 * spec.period, kappa=kappa)
        assert np.abs(evolved.psi - stepped.psi).max() <= 1e-13

    @settings(max_examples=12, deadline=None)
    @given(
        cells=st.integers(1, 5),
        zone=st.floats(-1.0, 1.0),
        substeps=st.integers(256, 512),
        amplitude=st.sampled_from((0.0, 1.0)),
        seed=st.integers(0, 2**16),
    )
    def test_cell_bloch_frame_matches_ring_loop(self, cells, zone, substeps, amplitude, seed):
        spec = replace(REF, amplitude=amplitude)
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(spec, 240), cells)
        state = smooth_state(ring, seed=seed, modes=4 * cells)
        params = dl.PropagationParams(substeps_per_period=substeps)
        kappa = zone * spec.brillouin_edge
        evolved = dl.evolve_ring(state, spec, params, spec.period, kappa=kappa)
        u = ring_loop(state, spec, params, spec.period, kappa)
        assert np.abs(evolved.psi - u).max() <= 1e-12


class TestNumerics:
    def test_forward_backward_round_trip(self):
        # time reversal: conjugate the state and drive with negated phases
        grid = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 1)
        state = dl.make_initial_state(dl.GaussianState(15.0, 3.0), grid)
        params = dl.default_params(REF)
        forward = dl.evolve_ring(state, REF, params, REF.period)
        reversed_spec = replace(REF, phases=tuple(-p for p in REF.phases))
        back = dl.evolve_ring(
            dl.ComplexState(forward.psi.conj(), grid), reversed_spec, params, REF.period
        )
        returned = dl.ComplexState(back.psi.conj(), grid)
        assert state_distance(returned, state) < 1e-8

    def test_second_order_convergence(self):
        # each error measured against its own 4x-resolved reference
        grid = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 1)
        state = smooth_state(grid)

        def error(substeps):
            coarse = dl.evolve_ring(
                state, REF, dl.PropagationParams(substeps_per_period=substeps), REF.period
            )
            fine = dl.evolve_ring(
                state, REF, dl.PropagationParams(substeps_per_period=4 * substeps), REF.period
            )
            return state_distance(coarse, fine)

        ratio = error(256) / error(512)
        assert 3.2 < ratio < 4.8

    def test_potential_tiling_matches_direct_evaluation(self):
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 4)
        t = 1.234
        tiled = np.tile(dl.potential(ring.cell.positions(), t, REF), ring.supercells)
        direct = dl.potential(ring.positions(), t, REF)
        assert np.abs(tiled - direct).max() < 1e-13
