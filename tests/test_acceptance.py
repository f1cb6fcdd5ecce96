"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import driven_lattice as dl


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {name}: {verdict} ({detail})")


def _peak_period(values: np.ndarray) -> float:
    """Dominant oscillation period of a trace, in driving periods."""
    signal = values - values.mean()
    amplitude = np.abs(np.fft.rfft(signal))
    amplitude[0] = 0.0
    k = int(np.argmax(amplitude))
    a, b, c = amplitude[k - 1], amplitude[k], amplitude[k + 1]
    denom = a - 2 * b + c
    shift = 0.5 * (a - c) / denom if denom != 0 else 0.0
    return len(signal) / (k + shift)


def test_criterion_01_monodromy_unitarity(ref_spec):
    edge = ref_spec.brillouin_edge
    worst = 0.0
    for kappa in (0.0, edge, -edge):
        U = dl.monodromy_matrix(ref_spec, kappa)
        worst = max(worst, float(np.abs(U.conj().T @ U - np.eye(len(U))).max()))
    ok = worst < 1e-8
    _report(1, "monodromy unitarity", ok, f"max deviation {worst:.2e}")
    assert ok


def test_criterion_02_free_particle_spectrum(ref_spec, grid480):
    spec = replace(ref_spec, v0=0.0)
    U = dl.monodromy_matrix(spec, 0.0, basis_size=41)
    computed = dl.diagonalize_monodromy(U, spec, 0.0, grid480).quasienergies
    alphas = sorted(range(-10, 11), key=abs)[:20]
    worst = 0.0
    for alpha in alphas:
        energy = spec.hbar**2 * (2 * math.pi * alpha / spec.cell_length) ** 2 / (2 * spec.mass)
        target = dl.fold_quasienergy(energy, spec)
        worst = max(worst, min(dl.circle_gap(target, e, spec) for e in computed))
    ok = worst < 1e-8
    _report(2, "free-particle spectrum", ok, f"20 lowest bands, max miss {worst:.2e}")
    assert ok


def test_criterion_03_interference_period(ref_spec, spectrum_w1, dec_w1_supercell):
    eps = spectrum_w1.quasienergies
    predicted = dl.interference_period(eps[2], eps[0], ref_spec)
    in_bracket = 73.0 <= predicted <= 81.0

    trace = dl.population_trace(dl.select_bands(dec_w1_supercell, range(3)), range(2048))
    row = int(np.argmax(trace.values.var(axis=1)))
    measured = _peak_period(trace.values[row])
    consistent = abs(measured - predicted) / predicted < 0.05

    ok = in_bracket and consistent
    _report(3, "interference period", ok,
            f"hw/(e2-e0) = {predicted:.2f} T, trace period {measured:.2f} T")
    assert ok


def test_criterion_04_few_mode_hierarchy(dec_w1_supercell):
    three = dl.population_trace(dl.select_bands(dec_w1_supercell, range(3)), range(401))
    two = dl.population_trace(dl.select_bands(dec_w1_supercell, range(2)), range(401))
    amp3, amp2 = three.peak_to_peak(), two.peak_to_peak()
    ok = amp3 > 2.0 * amp2
    _report(4, "few-mode hierarchy", ok, f"amp(3)={amp3:.4f} vs amp(2)={amp2:.4f}")
    assert ok


def test_criterion_05_oracle_equivalence(ring16_w1_dec, direct_trace_w1_100):
    floquet = dl.population_trace(ring16_w1_dec, range(101))
    error = float(np.abs(floquet.values - direct_trace_w1_100.values).max())
    ok = error < 1e-3
    _report(5, "oracle equivalence", ok, f"max population deviation {error:.2e}")
    assert ok


def test_criterion_06_symmetry_baseline(ref_spec):
    spec = replace(ref_spec, phases=(0.0, 0.0, 0.0))
    grid = dl.SupercellGrid.for_spec(spec, 480)
    spectrum = dl.labeled_spectrum(spec, 0.0, grid=grid)
    state = dl.make_initial_state(dl.UniformState(), dl.RingDomain(grid, 1))
    trace = dl.population_trace(dl.decompose(state, [spectrum]), range(401))
    worst = float(np.abs(trace.values - 1.0 / 3.0).max())
    ok = worst < 1e-10
    _report(6, "symmetry baseline", ok, f"max |n_s - 1/3| = {worst:.2e}")
    assert ok


def test_criterion_07_high_frequency_equipartition(ref_spec):
    spec = replace(ref_spec, omega=4.6)
    grid = dl.SupercellGrid.for_spec(spec, 480)
    spectrum = dl.labeled_spectrum(spec, 0.0, grid=grid)
    state = dl.make_initial_state(dl.UniformState(), dl.RingDomain(grid, 1))
    trace = dl.population_trace(dl.decompose(state, [spectrum]), range(401))
    deviation = abs(float(trace.values.max()) - 1.0 / 3.0)
    ok = deviation < 0.05
    _report(7, "high-frequency equipartition", ok, f"|n_max - 1/3| = {deviation:.4f}")
    assert ok


def test_criterion_08_resonant_imbalance(sweep_window):
    omegas = sweep_window.column("omega")
    at_resonance = sweep_window.records[int(np.argmin(np.abs(omegas - 2.74)))]
    imbalance_ok = at_resonance.n_max > 0.5

    minima = dl.detect_dips(omegas, sweep_window.column("gap"), prominence=0.0)
    nearest = min(abs(m.omega - 2.74) for m in minima) if minima else math.inf
    crossing_ok = nearest <= 0.1

    ok = imbalance_ok and crossing_ok
    _report(8, "resonant imbalance", ok,
            f"n_max(2.74) = {at_resonance.n_max:.3f}, "
            f"nearest gap minimum at |domega| = {nearest:.3f}")
    assert ok


def _mixing_band(spectrum) -> int:
    """Band alpha that the Floquet ground mode mixes with.

    The ground mode's plane-wave weight is summed over +-alpha; among the
    bands whose free energy exceeds hbar*omega/2 (those that fold onto the
    ground band, not the ground band's own neighbourhood) the heaviest wins.
    """
    spec = spectrum.spec
    k = dl.basis_wavenumbers(spec, spectrum.basis_size)
    weight = np.abs(spectrum.coefficients[:, 0]) ** 2
    weight[spec.hbar**2 * k**2 / (2 * spec.mass) <= spec.hbar * spec.omega / 2] = 0.0
    band = np.abs(np.rint(k * spec.cell_length / (2 * math.pi))).astype(int)
    return int(np.argmax(np.bincount(band, weights=weight)))


def test_criterion_09_resonance_formula_alignment(ref_spec, sweep_window):
    """Every overlap dip sits within 0.1 of a fold of the band it mixes with.

    The free-particle formula omega = E_alpha / (n hbar) explains a dip
    only if band alpha is the band the ground mode actually mixes with
    there.  So for each detected dip the labeled spectrum is rebuilt at the
    dip's grid frequency with the sweep's own numerics, alpha is read from
    the ground mode (``_mixing_band``), and the nearest fold of alpha from
    ``predict_resonances`` must lie within 0.1 of the dip.  The fold n is
    not capped: at A = 1 the lateral-shaking Bessel factor J_n(q_alpha A)
    does not suppress n >= 3 (q_alpha A runs from 2.3 to 5.4 here), and
    the window holds dips at folds 1 to 5 (alpha is the same for every dip
    when the basis grows by 16):

        dip omega   alpha   n   |E_alpha/(n hbar) - omega|
        2.4301      21      4   0.012
        2.4964      15      2   0.029
        2.6713      11      1   0.018
        2.6988      11      1   0.045
        2.7484      25      5   0.007
        2.9104      23      4   0.010
        2.9403      20      3   0.016
        2.9796      26      5   0.014
        3.1690      24      4   0.011
        3.1900      17      2   0.021

    A dip with no resonant partner, a dip between folds of its band, or a
    basis-edge artefact fails the check.
    """
    config = sweep_window.config
    omegas = sweep_window.column("omega")
    dips = dl.detect_dips(omegas, sweep_window.column("overlap"))
    matches = []
    for dip in dips:
        omega = float(omegas[np.argmin(np.abs(omegas - dip.omega))])
        spectrum = dl.spectrum_at(config, omega)
        alpha = _mixing_band(spectrum)
        # the unfolded (n = 1) prediction of band alpha is the highest one
        unfolded = dl.predict_resonances(ref_spec, alpha_max=alpha, max_folds=1)[-1]
        max_folds = int(unfolded.omega / dip.omega) + 1   # brackets the dip
        folds = [
            p for p in dl.predict_resonances(ref_spec, alpha, max_folds)
            if p.band_index == alpha
        ]
        fold = min(folds, key=lambda p: abs(p.omega - dip.omega))
        matches.append((dip.omega, alpha, fold.fold_count, abs(fold.omega - dip.omega)))
    misses = [m for m in matches if m[3] > 0.1]
    ok = bool(dips) and not misses
    detail = "; ".join(
        f"omega={w:.4f} alpha={a} n={n} residual {r:.3f}" for w, a, n, r in matches
    )
    _report(9, "resonance-formula alignment", ok, detail or "no dips detected")
    assert dips, "no overlap dips detected in the resonance window"
    assert not misses, (
        "dips farther than 0.1 from the nearest fold of the band they mix "
        f"with, as (dip omega, alpha, n, residual): {misses}"
    )


def test_criterion_10_nonzero_quasimomentum_freezing(
    spec_resonant, ring16_w274_trace
):
    ring_amp = ring16_w274_trace.peak_to_peak(sites=(24, 25, 26), window=(500, 800))

    grid = dl.SupercellGrid.for_spec(spec_resonant, 480)
    spectrum = dl.labeled_spectrum(spec_resonant, 0.0, grid=grid)
    state = dl.make_initial_state(dl.UniformState(), dl.RingDomain(grid, 1))
    zero_trace = dl.population_trace(dl.decompose(state, [spectrum]), range(500, 801))
    zero_amp = zero_trace.peak_to_peak(sites=(0, 1, 2))

    ok = ring_amp <= zero_amp / 3.0
    _report(10, "nonzero-quasimomentum freezing", ok,
            f"packet amp {ring_amp:.4f} vs kappa=0 amp {zero_amp:.4f}")
    assert ok


def test_criterion_11_numerical_hygiene(ref_spec):
    params = dl.default_params(ref_spec)

    # (a) norm drift over 400 periods
    grid = dl.RingDomain(dl.SupercellGrid.for_spec(ref_spec, 256), 1)
    rng = np.random.default_rng(21)
    state = dl.ComplexState(
        rng.normal(size=grid.points) + 1j * rng.normal(size=grid.points), grid
    ).normalized()
    evolved = dl.evolve_ring(state, ref_spec, params, 400 * ref_spec.period)
    drift = abs(evolved.norm() - 1.0)

    # (b) forward-backward round trip via time reversal
    grid480 = dl.RingDomain(dl.SupercellGrid.for_spec(ref_spec, 480), 1)
    packet = dl.make_initial_state(dl.GaussianState(15.0, 3.0), grid480)
    forward = dl.evolve_ring(packet, ref_spec, params, ref_spec.period)
    reversed_spec = replace(ref_spec, phases=tuple(-p for p in ref_spec.phases))
    back = dl.evolve_ring(
        dl.ComplexState(forward.psi.conj(), grid480), reversed_spec, params, ref_spec.period,
    )
    round_trip = math.sqrt(
        np.sum(np.abs(back.psi.conj() - packet.psi) ** 2) * grid480.dx
    )

    # (c) second-order convergence under substep halving
    def error(substeps):
        coarse = dl.evolve_ring(
            packet, ref_spec,
            dl.PropagationParams(substeps_per_period=substeps), ref_spec.period,
        )
        fine = dl.evolve_ring(
            packet, ref_spec,
            dl.PropagationParams(substeps_per_period=4 * substeps), ref_spec.period,
        )
        return math.sqrt(np.sum(np.abs(coarse.psi - fine.psi) ** 2) * grid480.dx)

    ratio = error(256) / error(512)

    # (d) decomposition residual with the 41-mode basis
    cell = dl.SupercellGrid.for_spec(ref_spec, 480)
    ring = dl.RingDomain(cell, 16)
    gauss = dl.make_initial_state(dl.GaussianState(240.0, 20 * math.pi), ring)
    spectra, _ = dl.ring_spectra(ref_spec, ring, basis_size=41)
    dec = dl.decompose(gauss, spectra)
    parseval = abs(dec.total_weight() + dec.residual - 1.0)

    ok = (
        drift < 1e-8
        and round_trip < 1e-8
        and 3.2 < ratio < 4.8
        and dec.residual < 1e-4
        and parseval < 1e-10
    )
    _report(11, "numerical hygiene", ok,
            f"drift {drift:.1e}, round trip {round_trip:.1e}, "
            f"convergence ratio {ratio:.2f}, residual {dec.residual:.1e}")
    assert ok
