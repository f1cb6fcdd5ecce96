import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driven_lattice as dl
from driven_lattice import dynamics

REF = dl.LatticeSpec()
FAST = dl.PropagationParams(substeps_per_period=512)


@pytest.fixture(scope="module")
def ring2():
    return dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 2)


@pytest.fixture(scope="module")
def spectra2(ring2):
    spectra, _ = dl.ring_spectra(REF, ring2, params=FAST, basis_size=41)
    return spectra


def tiled_ring_modes(spectrum, ring):
    """Every mode of a spectrum extended to the ring by tiling its periodic
    part over the cells (test-local oracle, ring-normalized)."""
    kappa = spectrum.kappa
    periodic = spectrum.samples * np.exp(-1j * kappa * ring.cell.positions())[:, None]
    tiled = np.tile(periodic, (ring.supercells, 1))
    bloch = np.exp(1j * kappa * ring.positions())[:, None]
    return tiled * bloch / math.sqrt(ring.supercells)


def ring_mode_state(spectrum, ring):
    """Mode 4 of a spectrum, extended to the ring by the tiled oracle."""
    return dl.ComplexState(tiled_ring_modes(spectrum, ring)[:, 4], ring)


def tiled_coefficients(state, spectra):
    ring = state.grid
    return np.stack([
        (tiled_ring_modes(s, ring).conj().T @ state.psi) * ring.dx for s in spectra
    ])


def tiled_populations(coefficients, spectra, ring, periods):
    """Dense reconstruction on the ring, every band column multiplied."""
    times = np.asarray(periods, dtype=float) * REF.period
    psi = np.zeros((ring.points, len(times)), dtype=complex)
    for spectrum, coeffs in zip(spectra, coefficients):
        amp = coeffs[:, None] * np.exp(
            -1j * np.outer(spectrum.quasienergies, times) / REF.hbar
        )
        psi += tiled_ring_modes(spectrum, ring) @ amp
    weights = dl.site_weights(REF, ring)
    return weights @ (np.abs(psi) ** 2)


@pytest.fixture(scope="module", params=[1, 3, 4], ids=lambda m: f"M{m}")
def packet_case(request):
    """Gaussian packet on an M-cell ring with its decomposition; M = 4 puts
    one kappa on the zone edge, where ring_kappas folds it."""
    ring = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), request.param)
    state = dl.make_initial_state(
        dl.GaussianState(ring.length / 2, ring.length / 9), ring
    )
    spectra, _ = dl.ring_spectra(REF, ring, params=FAST, basis_size=41)
    return state, spectra, dl.decompose(state, spectra)


class TestRingSpectra:
    def test_shared_monodromies_equal_per_kappa_spectra(self):
        # oracle: one labeled spectrum per kappa, each with its own monodromy;
        # on the resonant ring most labels would differ if a lone kappa
        # ranked its own overlaps
        for omega, cells, substeps, basis, picked in ((1.0, 3, 512, 41, (0, 1, 2)),
                                                      (2.74, 16, 256, 61, (0, 1, 5, 8, 11))):
            spec = replace(REF, omega=omega)
            params = dl.PropagationParams(substeps_per_period=substeps)
            ring = dl.RingDomain(dl.SupercellGrid.for_spec(spec, 480), cells)
            spectra, flags = dl.ring_spectra(spec, ring, params=params, basis_size=basis)
            kappas = dl.ring_kappas(spec, cells)
            expected = [dl.labeled_spectrum(spec, float(kappas[j]), grid=ring.cell,
                                            params=params, basis_size=basis) for j in picked]
            _, expected_flags = dl.match_band_labels(expected)
            assert {(picked[i], label) for i, label in expected_flags} == {
                (j, label) for j, label in flags if j in picked}
            assert len(spectra) == cells
            for got, want in zip([spectra[j] for j in picked], expected):
                assert got.kappa == want.kappa
                assert np.array_equal(got.quasienergies, want.quasienergies)
                assert np.array_equal(got.coefficients, want.coefficients)
                assert np.array_equal(got.samples, want.samples)
                assert got.near_degenerate == want.near_degenerate


class TestCellTransform:
    """The cell x kappa DFT against the tiled ring-mode construction."""

    def test_coefficients_match_tiled_modes(self, packet_case):
        state, spectra, dec = packet_case
        expected = tiled_coefficients(state, spectra)
        assert np.abs(dec.coefficients - expected).max() < 1e-12

    def test_populations_match_tiled_modes(self, packet_case):
        state, spectra, dec = packet_case
        periods = range(0, 60, 3)
        trace = dl.population_trace(dec, periods)
        expected = tiled_populations(dec.coefficients, spectra, state.grid, periods)
        assert np.abs(trace.values - expected).max() < 1e-12

    def test_chunking_does_not_change_populations(self, packet_case, monkeypatch):
        _, _, dec = packet_case
        large = dl.population_trace(dec, range(50))
        monkeypatch.setattr(dynamics, "_TRACE_CHUNK", 7)
        small = dl.population_trace(dec, range(50))
        assert np.abs(small.values - large.values).max() < 1e-14

    def test_selected_bands_match_zeroed_full_route(self, packet_case):
        state, spectra, dec = packet_case
        periods = range(0, 60, 3)
        pair = dl.select_bands(dec, (0, 2))
        expected = tiled_populations(pair.coefficients, spectra, state.grid, periods)
        trace = dl.population_trace(pair, periods)
        assert np.abs(trace.values - expected).max() < 1e-14


class TestDecompose:
    def test_single_mode_gives_delta_coefficients(self, ring2, spectra2):
        state = ring_mode_state(spectra2[1], ring2)
        dec = dl.decompose(state, spectra2)
        coeffs = np.abs(dec.coefficients)
        assert coeffs[1, 4] == pytest.approx(1.0, abs=1e-8)
        coeffs[1, 4] = 0.0
        assert coeffs.max() < 1e-8

    def test_uniform_state_has_zero_quasimomentum_only(self):
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 4)
        spectra, _ = dl.ring_spectra(REF, ring, params=FAST, basis_size=41)
        dec = dl.decompose(dl.make_initial_state(dl.UniformState(), ring), spectra)
        assert np.abs(dec.coefficients[1:]).max() < 1e-10

    def test_gaussian_completeness(self, ring16_w1_dec):
        assert ring16_w1_dec.total_weight() > 0.9999
        assert abs(ring16_w1_dec.total_weight() + ring16_w1_dec.residual - 1.0) < 1e-10

    def test_zero_period_reconstruction(self, ring16_w1_dec):
        state = dl.stroboscopic_state(ring16_w1_dec, 0)
        rebuilt = dl.population_trace(ring16_w1_dec, [0])
        assert ring16_w1_dec.residual < 1e-4
        assert abs(state.norm() - 1.0) < 1e-6
        assert abs(rebuilt.totals()[0] - 1.0) < 1e-8

    def test_out_of_basis_state_raises_completeness(self, ring2, spectra2):
        x = ring2.positions()
        k_out = 2 * math.pi * 30 / REF.cell_length  # above the 41-mode ladder
        psi = np.exp(1j * k_out * x) / math.sqrt(ring2.length)
        with pytest.raises(dl.CompletenessError):
            dl.decompose(dl.ComplexState(psi, ring2), spectra2)

    def test_validation(self, ring2, spectra2):
        state = dl.make_initial_state(dl.UniformState(), ring2)
        with pytest.raises(ValueError, match="one spectrum per"):
            dl.decompose(state, spectra2[:1])
        with pytest.raises(ValueError, match="normalized"):
            dl.decompose(dl.ComplexState(2.0 * state.psi, ring2), spectra2)

    def test_nan_state_raises(self, spectra2):
        # NaN passes no `>` bound, so every check is written `not x <= tol`
        ring1 = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 1)
        nan_state = dl.ComplexState(np.full(ring1.points, np.nan, dtype=complex), ring1)
        with pytest.raises(ValueError, match="normalized"):
            dl.decompose(nan_state, spectra2[:1])


class TestReconstruction:
    def test_single_mode_populations_stationary(self, ring2, spectra2):
        state = ring_mode_state(spectra2[1], ring2)
        dec = dl.decompose(state, spectra2)
        trace = dl.population_trace(dl.select_bands(dec, [4]), range(0, 40, 5))
        assert (trace.values.max(axis=1) - trace.values.min(axis=1)).max() < 1e-8

    def test_truncation_identity_and_validation(self, dec_w1_supercell):
        bands = dec_w1_supercell.coefficients.shape[1]
        full = dl.select_bands(dec_w1_supercell, range(bands))
        assert np.array_equal(full.coefficients, dec_w1_supercell.coefficients)
        for labels in ([], [999], [-1], [bands]):
            with pytest.raises(ValueError):
                dl.select_bands(dec_w1_supercell, labels)
        with pytest.raises(TypeError):  # a float label is not rounded to a band
            dl.select_bands(dec_w1_supercell, [1.7])

    def test_truncation_does_not_renormalize(self, dec_w1_supercell):
        kept = dl.select_bands(dec_w1_supercell, range(3))
        assert kept.total_weight() < dec_w1_supercell.total_weight()
        trace = dl.population_trace(kept, [0, 50])
        assert np.all(trace.totals() < 1.0)

    def test_three_mode_oscillation_collapses_with_two(self, dec_w1_supercell):
        three = dl.population_trace(dl.select_bands(dec_w1_supercell, range(3)), range(401))
        two = dl.population_trace(dl.select_bands(dec_w1_supercell, range(2)), range(401))
        assert three.peak_to_peak() > 2.0 * two.peak_to_peak()

    def test_two_mode_beat_matches_interference_period(self, dec_w1_supercell, spectrum_w1):
        # empirical beat frequency must land in the same spectral bin as the
        # quasienergy-gap prediction
        pair = dl.select_bands(dec_w1_supercell, (0, 2))
        horizon = 2048
        trace = dl.population_trace(pair, range(horizon))
        signal = trace.values[1] - trace.values[1].mean()
        amplitude = np.abs(np.fft.rfft(signal))
        peak_bin = int(np.argmax(amplitude[1:])) + 1
        eps = spectrum_w1.quasienergies
        predicted_cycles = dl.circle_gap(eps[2], eps[0], REF) / (REF.hbar * REF.omega)
        assert abs(peak_bin / horizon - predicted_cycles) <= 1.0 / horizon

    def test_populations_invariant_under_mode_gauge(self, ring2, spectra2):
        state = dl.make_initial_state(dl.UniformState(), ring2)
        trace = dl.population_trace(dl.decompose(state, spectra2), range(0, 30, 3))
        rng = np.random.default_rng(12)
        twisted = []
        for spectrum in spectra2:
            phases = np.exp(1j * rng.uniform(0, 2 * math.pi, spectrum.basis_size))
            twisted.append(replace(
                spectrum,
                samples=spectrum.samples * phases,
                coefficients=spectrum.coefficients * phases,
            ))
        trace2 = dl.population_trace(dl.decompose(state, twisted), range(0, 30, 3))
        assert np.abs(trace.values - trace2.values).max() < 1e-12


class TestPeakToPeak:
    TRACE = dl.PopulationTrace(periods=np.array([0, 1, 2]),
                               values=np.array([[0.1, 0.4, 0.2], [0.5, 0.5, 0.9]]))

    def test_selected_sites_and_window(self):
        assert self.TRACE.site_indices.tolist() == [0, 1]
        assert self.TRACE.peak_to_peak() == pytest.approx(0.4)
        assert self.TRACE.peak_to_peak(sites=(0,)) == pytest.approx(0.3)
        assert self.TRACE.peak_to_peak(window=(0, 1)) == pytest.approx(0.3)

    @pytest.mark.parametrize("selector, message", [
        ({"sites": (7,)}, r"sites \[7\]"),
        ({"sites": (-1, 0)}, r"sites \[-1\]"),
        ({"sites": ()}, "2-site trace"),
        ({"window": (10, 20)}, r"window \(10, 20\)"),
    ])
    def test_bad_selectors_are_named(self, selector, message):
        with pytest.raises(ValueError, match=message):
            self.TRACE.peak_to_peak(**selector)


class TestSitePopulations:
    def test_uniform_thirds(self, grid480):
        state = dl.make_initial_state(dl.UniformState(), dl.RingDomain(grid480, 1))
        pops = dl.site_populations(state, REF)
        assert np.abs(pops - 1.0 / 3.0).max() < 1e-12

    def test_site_interval_convention(self, grid480):
        # site s covers [(s-1) L, s L): a packet at x = 5 lives in site 1
        state = dl.make_initial_state(dl.GaussianState(5.0, 1.0), dl.RingDomain(grid480, 1))
        pops = dl.site_populations(state, REF)
        assert int(np.argmax(pops)) == 1
        assert pops[1] > 0.999

    def test_totals_close_on_misaligned_grid(self):
        grid = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 512), 1)  # 512 not divisible by 3
        rng = np.random.default_rng(0)
        state = dl.ComplexState(
            rng.normal(size=512) + 1j * rng.normal(size=512), grid
        ).normalized()
        pops = dl.site_populations(state, REF)
        assert pops.sum() == pytest.approx(1.0, abs=1e-8)

    def test_ring_site_wrapping(self):
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 2)
        weights = dl.site_weights(REF, ring)
        assert weights.shape == (6, ring.points)
        assert weights.sum() == pytest.approx(ring.length)
        # site 0 wraps: [-L, 0) is the last spacing of the ring
        packet = dl.make_initial_state(
            dl.GaussianState(ring.length - REF.spacing / 2, 1.0), ring
        )
        pops = dl.site_populations(packet, REF)
        assert int(np.argmax(pops)) == 0
        assert pops[0] > 0.999


class TestInterferencePeriod:
    def test_reference_values(self):
        zone = REF.hbar * REF.omega
        assert dl.interference_period(zone / 77, 0.0, REF) == pytest.approx(77.0)
        assert dl.interference_period(zone / 2, 0.0, REF) == pytest.approx(2.0)

    def test_degenerate_pair_raises(self):
        with pytest.raises(dl.DegenerateModeError):
            dl.interference_period(0.25, 0.25, REF)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1e-3, 0.499))
    def test_inverse_relation(self, fraction):
        zone = REF.hbar * REF.omega
        period = dl.interference_period(fraction * zone, 0.0, REF)
        assert period == pytest.approx(1.0 / fraction, rel=1e-12)


class TestSymmetryBaseline:
    def test_equal_phases_keep_thirds(self):
        spec = dl.LatticeSpec(phases=(0.0, 0.0, 0.0))
        grid = dl.SupercellGrid.for_spec(spec, 480)
        spectrum = dl.labeled_spectrum(spec, 0.0, grid=grid, params=FAST)
        state = dl.make_initial_state(dl.UniformState(), dl.RingDomain(grid, 1))
        dec = dl.decompose(state, [spectrum])
        trace = dl.population_trace(dec, range(51))
        assert np.abs(trace.values - 1.0 / 3.0).max() < 1e-10


class TestOracleEquivalence:
    def test_reconstruction_matches_direct_integration(self):
        # brute-force split-step integration is the independent route
        spec = REF
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(spec, 480), 4)
        state = dl.make_initial_state(dl.GaussianState(60.0, 10.0), ring)
        spectra, _ = dl.ring_spectra(spec, ring)
        dec = dl.decompose(state, spectra)
        periods = 60
        floquet_trace = dl.population_trace(dec, range(periods + 1))
        direct_trace = dl.direct_population_trace(
            state, spec, dl.default_params(spec), periods
        )
        assert np.abs(floquet_trace.values - direct_trace.values).max() < 1e-3


class TestDirectTrace:
    @pytest.mark.parametrize(
        "cells, substeps, amplitude",
        [(1, 512, 1.0), (3, 512, 1.0), (16, 256, 1.0), (2, 257, 1.0), (3, 256, 0.0)],
        ids=["M1", "M3", "M16", "odd-substeps", "static"],
    )
    def test_one_pass_matches_period_by_period_calls(self, cells, substeps, amplitude):
        spec = replace(REF, amplitude=amplitude)
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(spec, 240), cells)
        state = dl.make_initial_state(
            dl.GaussianState(ring.length / 2, ring.length / 9), ring)
        params = dl.PropagationParams(substeps_per_period=substeps)
        trace = dl.direct_population_trace(state, spec, params, 3)
        weights = dl.site_weights(spec, ring)
        expected = [weights @ np.abs(state.psi) ** 2]
        for _ in range(3):
            state = dl.evolve_ring(state, spec, params, spec.period)
            expected.append(weights @ np.abs(state.psi) ** 2)
        assert np.array_equal(trace.periods, np.arange(4))
        assert np.abs(trace.values - np.stack(expected, axis=1)).max() <= 1e-13

    def test_traces_reject_negative_periods(self, dec_w1_supercell):
        # the wording of stroboscopic_state's check, for both traces
        state = dl.make_initial_state(dl.UniformState(), dec_w1_supercell.ring)
        with pytest.raises(ValueError, match=r"periods must be >= 0"):
            dl.stroboscopic_state(dec_w1_supercell, -1)
        with pytest.raises(ValueError, match=r"periods must be >= 0"):
            dl.population_trace(dec_w1_supercell, [-1, 2])
        with pytest.raises(ValueError, match=r"periods must be >= 0"):
            dl.direct_population_trace(state, REF, FAST, -1)


class TestRingPacket:
    def test_central_sites_oscillate_near_seventy_five_periods(self, ring16_w1_dec):
        horizon = 2048
        trace = dl.population_trace(ring16_w1_dec, range(horizon))
        signal = trace.values[25] - trace.values[25].mean()
        amplitude = np.abs(np.fft.rfft(signal))
        amplitude[0] = 0.0
        period = horizon / int(np.argmax(amplitude))
        assert 73.0 <= period <= 81.0

    def test_oscillations_vanish_without_phase_contrast(self, ring16_w1_dec):
        # both runs share the slow diffusive decay, so the oscillation
        # amplitude is read off after removing the linear trend
        def detrended_amplitude(trace):
            m = trace.periods.astype(float)
            worst = 0.0
            for row in trace.values[24:27]:  # the central sites
                residual = row - np.polyval(np.polyfit(m, row, 1), m)
                worst = max(worst, float(residual.max() - residual.min()))
            return worst

        spec = dl.LatticeSpec(phases=(0.0, 0.0, 0.0))
        cell = dl.SupercellGrid.for_spec(spec, 480)
        ring = dl.RingDomain(cell, 16)
        state = dl.make_initial_state(dl.GaussianState(240.0, 20 * math.pi), ring)
        spectra, _ = dl.ring_spectra(spec, ring)
        dec = dl.decompose(state, spectra)
        flat = dl.population_trace(dec, range(401))
        driven = dl.population_trace(ring16_w1_dec, range(401))

        assert detrended_amplitude(flat) < 0.02
        assert detrended_amplitude(flat) < detrended_amplitude(driven) / 3.0

    def test_resonant_imbalance_grows_then_peaks_midway(self, ring16_w274_trace):
        central = ring16_w274_trace.values[24:27]
        imbalance = central.max(axis=0) - central.min(axis=0)
        peak_m = int(ring16_w274_trace.periods[int(np.argmax(imbalance))])
        assert 150 <= peak_m <= 350
        assert imbalance[10] < 0.25 * imbalance.max()


class TestTwoBand:
    def test_zero_period_matches_truncated_initial(self, ring16_w274_dec):
        dec = ring16_w274_dec
        by_select = dl.stroboscopic_state(dl.select_bands(dec, (0, 1)), 0)
        by_truncation = dl.stroboscopic_state(dl.select_bands(dec, range(2)), 0)
        assert np.array_equal(by_select.psi, by_truncation.psi)

    def test_ground_band_alone_is_nearly_frozen(self, ring16_w274_dec):
        # derived bound: quasienergy spread and periodic-part drift of the
        # ground band limit how much its populations can move
        dec = ring16_w274_dec
        spec = dec.spec
        horizon = 100
        ground = dl.select_bands(dec, (0,))
        trace = dl.population_trace(ground, range(horizon + 1))
        variation = trace.peak_to_peak(sites=(24, 25, 26))

        weights = np.abs(dec.coefficients[:, 0])
        eps = np.array([s.quasienergies[0] for s in dec.spectra])
        ref_coeff = dec.spectra[0].coefficients[:, 0]
        drift = np.empty(len(dec.spectra))
        for j, spectrum in enumerate(dec.spectra):
            coeff = spectrum.coefficients[:, 0]
            phase = np.vdot(ref_coeff, coeff)
            phase = phase / abs(phase) if abs(phase) > 0 else 1.0
            drift[j] = np.linalg.norm(coeff - phase * ref_coeff)
        dephasing = np.abs(eps - eps[0]) * horizon * spec.period / spec.hbar
        bound = 2.0 * float(weights @ (dephasing + 2.0 * drift))

        assert variation <= bound
        assert variation < 0.02  # near-frozen against the ~0.5 swing at kappa = 0

    def test_two_band_reproduces_intermediate_plateau(
        self, ring16_w274_dec, ring16_w274_trace
    ):
        window = (ring16_w274_trace.periods >= 500) & (ring16_w274_trace.periods <= 800)
        full = ring16_w274_trace.values[24:27, window]
        pair = dl.select_bands(ring16_w274_dec, (0, 1))
        two = dl.population_trace(pair, range(500, 801)).values[24:27]
        assert np.abs(two - full).max() < 0.05
