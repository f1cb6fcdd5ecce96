import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driven_lattice as dl
from driven_lattice import floquet
from driven_lattice.dynamics import site_populations

REF = dl.LatticeSpec()
FAST = dl.PropagationParams(substeps_per_period=512)


W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
YOSHIDA = (W1, 1.0 - 2.0 * W1, W1)  # the triple jump, 4th order
STRANG = (1.0,)  # the bare midpoint substep, 2nd order
P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
SUZUKI = (P, P, 1.0 - 4.0 * P, P, P)  # Suzuki's 5-stage composition, 4th order


def _eigh_factor(spec, q, envelope, idx, t, tau):
    """exp(-i W(t) tau / hbar) by Hermitian eigendecomposition."""
    w = floquet._potential_coefficients(spec, q, envelope, [t])[0][idx]
    vals, vecs = np.linalg.eigh(w)
    return (vecs * np.exp(-1j * vals * tau / spec.hbar)) @ vecs.conj().T


def run_steps(spec, params, basis_size):
    """Composition steps per period `monodromy_matrix` runs, rounded for its route."""
    return floquet._monodromy_resolution(spec, params, basis_size).substeps // len(floquet._WEIGHTS)


def eigh_monodromy(spec, kappa, steps, basis_size, weights=YOSHIDA):
    """Reference monodromy: `steps` steps S(w_1 h) ... S(w_r h) of the
    midpoint Strang substep over the r weights, over the whole period,
    unmerged kinetic halves and every potential factor exponentiated by
    Hermitian eigendecomposition."""
    B = basis_size
    h = spec.period / steps
    k = dl.basis_wavenumbers(spec, B, kappa)
    kinetic = spec.hbar * k**2 / (2 * spec.mass)  # kinetic energy / hbar
    q, envelope = floquet._fourier_ladder(spec, B)
    idx = (B - 1) + np.arange(B)[:, None] - np.arange(B)[None, :]
    U = np.eye(B, dtype=complex)
    for j in range(steps):
        t = j * h
        for tau in (w * h for w in weights):
            half = np.exp(-1j * kinetic * tau / 2)[:, None]
            U = half * (_eigh_factor(spec, q, envelope, idx, t + tau / 2, tau) @ (half * U))
            t += tau
    return U


def _halving_ratio(spec, kappa, exact_steps):
    """max |U - U_exact| at 100 steps over that at 200, against a run of
    `exact_steps` steps of the current weights."""
    stages = len(floquet._WEIGHTS)
    exact = dl.monodromy_matrix(spec, kappa, dl.PropagationParams(stages * exact_steps), 41)
    errors = [
        np.abs(dl.monodromy_matrix(spec, kappa, dl.PropagationParams(stages * steps), 41)
               - exact).max()
        for steps in (100, 200)
    ]
    return errors[0] / errors[1]


def free_quasienergies(spec, alphas):
    energies = (
        spec.hbar**2 * (2 * math.pi * np.asarray(alphas) / spec.cell_length) ** 2
        / (2 * spec.mass)
    )
    return dl.fold_quasienergy(energies, spec)


class TestMonodromy:
    def test_free_particle_is_diagonal(self):
        spec = dl.LatticeSpec(v0=0.0)
        kappa = 0.3 * spec.brillouin_edge
        U = dl.monodromy_matrix(spec, kappa, FAST, basis_size=21)
        k = dl.basis_wavenumbers(spec, 21, kappa)
        expected = np.exp(-1j * spec.hbar * k**2 * spec.period / (2 * spec.mass))
        assert np.abs(np.diag(U) - expected).max() < 1e-10
        assert np.abs(U - np.diag(np.diag(U))).max() < 1e-10

    def test_near_free_limit_is_diagonal(self):
        # generic integration path, vanishing barrier
        spec = dl.LatticeSpec(v0=1e-14)
        U = dl.monodromy_matrix(spec, 0.0, FAST, basis_size=41)
        off = U - np.diag(np.diag(U))
        assert np.abs(off).max() < 1e-10

    def test_static_lattice_commutes_with_site_translation(self):
        spec = dl.LatticeSpec(amplitude=0.0)
        kappa = 0.2 * spec.brillouin_edge
        U = dl.monodromy_matrix(spec, kappa, basis_size=41)
        k = dl.basis_wavenumbers(spec, 41, kappa)
        translation = np.diag(np.exp(-1j * k * spec.spacing))
        assert np.abs(U @ translation - translation @ U).max() < 1e-8

    @pytest.mark.parametrize(
        "spec, kappa, params, B",
        [
            (REF, 0.3 * REF.brillouin_edge, FAST, 41),
            # theta = n_p sum|c_n| |w0| h / hbar ~ 18.2 (88 steps): scaled and
            # squared 5 times; 215 is the smallest basis that clears the 5 v0 cutoff
            (dl.LatticeSpec(v0=50.0), 0.0, dl.PropagationParams(substeps_per_period=256), 215),
        ],
        ids=["kappa0.3-B41", "v0-50"],
    )
    def test_matches_eigendecomposition_factors(self, spec, kappa, params, B):
        steps = run_steps(spec, params, B)
        U = dl.monodromy_matrix(spec, kappa, params, basis_size=B)
        assert np.abs(U - eigh_monodromy(spec, kappa, steps, B)).max() < 1e-12
        # the stacked call shares the potential factors between its kappas
        kappas = np.array([kappa, -0.5 * spec.brillouin_edge])
        stacked = dl.monodromy_matrix(spec, kappas, params, basis_size=B)
        assert np.array_equal(stacked[0], U)
        assert np.abs(stacked[1] - eigh_monodromy(spec, kappas[1], steps, B)).max() < 1e-12

    def test_weights_are_yoshidas_triple_jump(self):
        assert floquet._WEIGHTS == YOSHIDA

    def test_fourth_order_in_the_step(self):
        # halving the step divides the error by about 2^4
        assert 12.0 <= _halving_ratio(REF, 0.3 * REF.brillouin_edge, 1600) <= 20.0

    @pytest.mark.parametrize("weights", [STRANG, SUZUKI], ids=["strang", "suzuki"])
    def test_weights_tuple_alone_defines_the_composition(self, monkeypatch, weights):
        # another tuple runs its own scheme through the same loop, so the
        # loop holds nothing of the triple jump
        monkeypatch.setattr(floquet, "_WEIGHTS", weights)
        kappa = 0.3 * REF.brillouin_edge
        assert floquet._monodromy_resolution(REF, FAST).substeps % len(weights) == 0
        U = dl.monodromy_matrix(REF, kappa, FAST, basis_size=41)
        steps = run_steps(REF, FAST, 41)
        assert np.abs(U - eigh_monodromy(REF, kappa, steps, 41, weights)).max() < 1e-12
        if weights is SUZUKI:
            assert 12.0 <= _halving_ratio(REF, kappa, 800) <= 20.0

    @pytest.mark.parametrize("omega, B", [(1.0, 41), (2.8, 53)])
    def test_default_resolution_no_worse_than_strang_default(self, omega, B):
        # the default triple jumps must match the accuracy of the 2nd-order
        # default they replaced (2048 max(1, omega) substeps); the exact
        # monodromy is a converged 2048-jump one
        spec = replace(REF, omega=omega)
        exact = dl.monodromy_matrix(spec, 0.0, dl.PropagationParams(3 * 2048), B)
        strang = eigh_monodromy(spec, 0.0, dl.default_params(spec).substeps_per_period, B, STRANG)
        default = dl.monodromy_matrix(spec, 0.0, basis_size=B)
        assert np.abs(default - exact).max() <= np.abs(strang - exact).max()

    def test_explicit_substeps_make_whole_triple_jumps(self):
        # 256 substeps are ceil(256 / 3) = 86 triple jumps, rounded up to
        # 88 for the quarter route of the reference phases and the half
        # route of the glide alone; the full route keeps 86
        params = dl.PropagationParams(substeps_per_period=256)
        assert floquet._monodromy_resolution(REF, params) == (1.0, 264, 41, "quarter")
        glide_only = replace(REF, phases=(0.0, math.pi / 2, 0.0))
        assert floquet._monodromy_resolution(glide_only, params) == (1.0, 264, 41, "half")
        for phases in [(0.0, 0.0, math.pi), (0.0, 1.0, 2.0)]:  # time reversal alone, neither
            asymmetric = replace(REF, phases=phases)
            assert floquet._monodromy_resolution(asymmetric, params) == (1.0, 258, 41, "full")
        resolution = floquet._monodromy_resolution(REF, None, 131)
        steps = 4 * math.ceil(floquet._default_steps(REF, 131) / 4)
        assert resolution == (1.0, 3 * steps, 131, "quarter")
        assert resolution.substeps > floquet._monodromy_resolution(REF).substeps

    @pytest.mark.parametrize(
        "spec, fractions",
        [
            (REF, (-1.0, 0.37, 1.0)),
            (REF, (0.2,)),  # the sweep's one-kappa path, bit for bit
            (dl.LatticeSpec(v0=0.0), (0.0, 0.5)),
            (dl.LatticeSpec(amplitude=0.0), (0.0, 0.5)),
        ],
        ids=["zone-edges", "one-kappa", "free", "static"],
    )
    def test_stacked_call_equals_scalar_calls(self, spec, fractions):
        kappas = np.array(fractions) * spec.brillouin_edge
        stacked = dl.monodromy_matrix(spec, kappas, FAST, basis_size=41)
        separate = [dl.monodromy_matrix(spec, k, FAST, basis_size=41) for k in kappas]
        assert stacked.shape == (len(kappas), 41, 41)
        assert np.array_equal(stacked, np.stack(separate))

    def test_driven_lattice_commutes_with_site_translation(self):
        # in-phase drive keeps the one-site translation symmetry exactly
        spec = dl.LatticeSpec(phases=(0.0, 0.0, 0.0))
        kappa = 0.3 * spec.brillouin_edge
        U = dl.monodromy_matrix(spec, kappa, FAST, basis_size=41)
        k = dl.basis_wavenumbers(spec, 41, kappa)
        translation = np.diag(np.exp(-1j * k * spec.spacing))
        assert np.abs(U @ translation - translation @ U).max() < 1e-12

    def test_unitarity_at_reference_parameters(self):
        for kappa in (0.0, REF.brillouin_edge, -REF.brillouin_edge):
            U = dl.monodromy_matrix(REF, kappa, FAST)
            assert np.abs(U.conj().T @ U - np.eye(41)).max() < 1e-8

    def test_driven_eigenphases_unimodular(self):
        U = dl.monodromy_matrix(REF, 0.0, FAST, basis_size=41)
        eigenvalues = np.linalg.eigvals(U)
        assert eigenvalues.shape == (41,)
        assert np.abs(np.abs(eigenvalues) - 1.0).max() < 1e-8

    def test_preconditions(self):
        with pytest.raises(ValueError, match="odd"):
            dl.monodromy_matrix(REF, 0.0, FAST, basis_size=40)
        with pytest.raises(ValueError, match="cutoff"):
            dl.monodromy_matrix(REF, 0.0, FAST, basis_size=21)
        with pytest.raises(ValueError, match="Brillouin"):
            dl.monodromy_matrix(REF, 1.5 * REF.brillouin_edge, FAST)

    def test_kappa_array_preconditions(self):
        edge = REF.brillouin_edge
        with pytest.raises(dl.ConfigError, match="Brillouin"):
            dl.monodromy_matrix(REF, np.array([0.0, 1.5 * edge]), FAST, basis_size=41)
        for bad in (np.array([]), np.zeros((2, 2))):
            with pytest.raises(dl.ConfigError, match="1-D"):
                dl.monodromy_matrix(REF, bad, FAST, basis_size=41)

    def test_default_basis_size_scales_with_omega(self):
        assert dl.default_basis_size(REF) == 41
        assert dl.default_basis_size(replace(REF, omega=2.74)) == 51
        assert dl.default_basis_size(replace(REF, omega=4.6)) == 67


ROUTE_PARAMS = dl.PropagationParams(3 * 172)  # 172 steps: whole quarters on every route


def full_period_loop(spec, kappa, params, basis_size):
    """The monodromy's own jump loop over the whole period, no assembly."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dl.LatticeSpec, "drive_symmetries", lambda self: (False, False))
        assert floquet._monodromy_resolution(spec, params, basis_size).route == "full"
        return dl.monodromy_matrix(spec, kappa, params, basis_size)


def coefficient_symmetries(spec, basis_size, steps, weights):
    """Test-local oracle, the check on the potential coefficients c_n(t) at
    the substep midpoint times that the phase rule replaced: time
    reversal c_n(T - t) = c_n(t), the glide c_{-n}(t + T/2) = exp(2i q_n L)
    c_n(t), each within 1e-12 of n_p * max(envelope)."""
    q, envelope = floquet._fourier_ladder(spec, basis_size)
    times = floquet._midpoint_times(spec, steps, weights)
    c = floquet._potential_coefficients(spec, q, envelope, times)
    tol = 1e-12 * spec.sites_per_cell * envelope.max()
    time_reversal = weights == weights[::-1] and np.abs(c[::-1] - c).max() <= tol
    half = len(c) // 2
    glide = np.abs(c[half:, ::-1] - np.exp(2j * spec.spacing * q) * c[:half]).max() <= tol
    return bool(time_reversal), bool(glide)


class TestRoutes:
    @pytest.mark.parametrize(
        "phases, fraction, route",
        [
            ((0.0, math.pi, 0.0), 0.0, "quarter"),
            ((0.0, math.pi, 0.0), 0.37, "quarter"),
            ((0.0, math.pi / 2, 0.0), 0.37, "half"),  # the glide alone
            ((0.0, 0.0, math.pi), 0.37, "full"),  # time reversal alone
            ((0.0, 1.0, 2.0), 0.37, "full"),
        ],
        ids=["quarter-k0", "quarter-interior", "half-glide", "full-time-reversal", "full"],
    )
    def test_assembled_period_matches_full_period_loop(self, phases, fraction, route):
        spec = replace(REF, omega=2.8, phases=phases)
        kappa = fraction * spec.brillouin_edge
        assert floquet._monodromy_resolution(spec, ROUTE_PARAMS, 53).route == route
        U = dl.monodromy_matrix(spec, kappa, ROUTE_PARAMS, basis_size=53)
        assert np.abs(U - full_period_loop(spec, kappa, ROUTE_PARAMS, 53)).max() < 1e-12

    def test_even_ring_zone_edge_gets_its_partner(self):
        # the ladder of a 4-cell ring holds +edge but not -edge
        kappas = dl.ring_kappas(REF, 4)
        edge = REF.brillouin_edge
        assert np.isclose(kappas, edge).any() and not np.isclose(kappas, -edge).any()
        stacked = dl.monodromy_matrix(REF, kappas, ROUTE_PARAMS, basis_size=41)
        for U, kappa in zip(stacked, kappas):
            assert np.abs(U - full_period_loop(REF, kappa, ROUTE_PARAMS, 41)).max() < 1e-12

    @pytest.mark.parametrize("supercells, extra", [(4, 1), (16, 1), (5, 0)])
    def test_ring_ladder_stack_adds_only_the_minus_edge(self, supercells, extra):
        # the ladder holds -kappa bitwise beside every kappa but the even
        # ring's +edge, so a paired route runs one kappa more, not 2M - 1
        kappas = [float(k) for k in dl.ring_kappas(REF, supercells)]
        run = floquet._kappa_stack(kappas, paired=True)
        assert len(run) == supercells + extra
        assert run[:supercells] == kappas and {-k for k in kappas} <= set(run)
        assert floquet._kappa_stack(kappas, paired=False) == kappas

    def test_symmetries_are_checked_on_the_coefficients(self):
        steps = 172
        for phases, expected in [
            ((0.0, math.pi, 0.0), (True, True)),
            ((0.0, math.pi / 2, 0.0), (False, True)),
            ((0.0, 0.0, math.pi), (True, False)),
            ((0.0, 1.0, 2.0), (False, False)),
            # a perturbation far above roundoff breaks both
            ((1e-6, math.pi, 0.0), (False, False)),
        ]:
            spec = replace(REF, phases=phases)
            assert spec.drive_symmetries() == expected
            assert coefficient_symmetries(spec, 41, steps, floquet._WEIGHTS) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        phases=st.lists(
            st.one_of(st.sampled_from((0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2)),
                      st.floats(-math.pi, math.pi)),
            min_size=2, max_size=5),
        half_steps=st.integers(1, 100),
        omega=st.sampled_from((1.0, 2.74, 3.2)),
    )
    def test_offset_check_agrees_with_the_coefficient_check(self, phases, half_steps, omega):
        spec = replace(REF, phases=tuple(phases), omega=omega)
        steps = 2 * half_steps  # the glide pairs steps half a period apart
        assert spec.drive_symmetries() == coefficient_symmetries(spec, 41, steps,
                                                                 floquet._WEIGHTS)

    @settings(max_examples=12, deadline=None)
    @given(
        phases=st.sampled_from(((0.0, math.pi, 0.0), (0.0, math.pi / 2, 0.0), (0.3, 1.1, -2.0))),
        omega=st.sampled_from((1.0, 2.8)),
        fraction=st.one_of(st.sampled_from((0.0, 0.37, -0.8)), st.floats(-1.0, 1.0)),
    )
    def test_time_reversal_maps_the_monodromy_to_its_flipped_transpose(
            self, phases, omega, fraction):
        # negated phases run the drive backwards, H'(t) = H(T - t); with a
        # real potential the position-basis transpose reverses time, and in
        # the plane-wave basis it takes kappa to -kappa and index a to -a:
        # U'_{-k} = P U_k^T P, on the quarter, half and full routes alike
        spec = replace(REF, omega=omega, phases=phases)
        kappa = fraction * spec.brillouin_edge
        U = dl.monodromy_matrix(spec, kappa, ROUTE_PARAMS, basis_size=53)
        backwards = replace(spec, phases=tuple(-p for p in phases))
        U_back = dl.monodromy_matrix(backwards, -kappa, ROUTE_PARAMS, basis_size=53)
        assert np.abs(U_back - U.T[::-1, ::-1]).max() < 1e-12

    @settings(max_examples=8, deadline=None)
    @given(st.floats(-1.0, 1.0))
    def test_quarter_route_matches_full_period_at_any_kappa(self, fraction):
        kappa = fraction * REF.brillouin_edge
        U = dl.monodromy_matrix(REF, kappa, ROUTE_PARAMS, basis_size=41)
        assert np.abs(U - full_period_loop(REF, kappa, ROUTE_PARAMS, 41)).max() < 1e-12


class TestBlasThreads:
    def test_spectrum_does_not_depend_on_the_callers_thread_count(self):
        controls = floquet._blas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread setter found")
        spec = replace(REF, omega=2.72)
        grid = dl.SupercellGrid.for_spec(spec, 512)
        saved = [get() for get, _ in controls]
        results = {}
        try:
            for count in (2, 1):
                for _, set_ in controls:
                    set_(count)
                spectrum = dl.labeled_spectrum(spec, 0.0, grid=grid, params=FAST)
                results[count] = (spectrum.quasienergies, spectrum.samples,
                                  spectrum.uniform_weights())
                # the library ran on one thread and gave the caller's count back
                assert [get() for get, _ in controls] == [count] * len(controls)
        finally:
            for (_, set_), count in zip(controls, saved):
                set_(count)
        for a, b in zip(results[2], results[1]):
            assert np.array_equal(a, b)

    def test_overlapping_threads_give_the_callers_count_back(self):
        controls = floquet._blas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread setter found")
        grid = dl.SupercellGrid.for_spec(REF, 240)
        U = np.diag(np.exp(1j * np.linspace(0.0, 3.0, 41)))
        failures = []

        def work():
            try:
                for _ in range(40):
                    dl.diagonalize_monodromy(U, REF, 0.0, grid=grid).uniform_weights()
            except Exception as exc:  # reported by the main thread
                failures.append(exc)

        saved = [get() for get, _ in controls]
        interval = sys.getswitchinterval()
        try:
            for _, set_ in controls:
                set_(2)
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures
            assert [get() for get, _ in controls] == [2] * len(controls)
        finally:
            sys.setswitchinterval(interval)
            for (_, set_), count in zip(controls, saved):
                set_(count)


class TestDiagonalize:
    def test_identity_gives_zero_quasienergies(self):
        spectrum = dl.diagonalize_monodromy(np.eye(11), REF, 0.0)
        assert np.abs(spectrum.quasienergies).max() == 0.0
        norms = np.sum(np.abs(spectrum.samples) ** 2, axis=0) * spectrum.grid.dx
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(dl.UnitarityError):
            dl.diagonalize_monodromy(0.5 * np.eye(5), REF, 0.0)

    def test_rejects_nan_matrix(self):
        # a NaN deviation must fail the check, not reach the Schur routine
        U = np.eye(5, dtype=complex)
        U[1, 3] = np.nan
        with pytest.raises(dl.UnitarityError):
            dl.diagonalize_monodromy(U, REF, 0.0)

    def test_free_particle_quasienergies(self, grid480):
        spec = dl.LatticeSpec(v0=0.0)
        U = dl.monodromy_matrix(spec, 0.0, basis_size=41)
        computed = np.sort(dl.diagonalize_monodromy(U, spec, 0.0, grid480).quasienergies)
        for alpha in range(-10, 11):
            target = free_quasienergies(spec, alpha)
            assert min(dl.circle_gap(target, value, spec) for value in computed) < 1e-8

    def test_modes_orthonormal(self, spectrum_w1):
        modes = spectrum_w1.samples
        gram = modes.conj().T @ modes * spectrum_w1.grid.dx
        assert np.abs(gram - np.eye(spectrum_w1.basis_size)).max() < 1e-8

    def test_quasienergies_inside_zone(self, spectrum_w1):
        zone = REF.hbar * REF.omega
        eps = spectrum_w1.quasienergies
        assert eps.min() >= -zone / 2 and eps.max() <= zone / 2

    def test_exact_degeneracies_flagged(self, grid480):
        spec = dl.LatticeSpec(v0=0.0)
        U = dl.monodromy_matrix(spec, 0.0, basis_size=41)
        spectrum = dl.diagonalize_monodromy(U, spec, 0.0, grid480)
        assert spectrum.near_degenerate  # +-alpha pairs are exactly degenerate

    def test_gauge_is_deterministic(self, grid480):
        a = dl.labeled_spectrum(REF, 0.0, grid=grid480, params=FAST)
        b = dl.labeled_spectrum(REF, 0.0, grid=grid480, params=FAST)
        assert np.array_equal(a.samples, b.samples)

    def test_modes_reproduce_their_eigenphase_under_grid_evolution(self, grid480):
        # cross-validates the basis-space monodromy against the grid integrator;
        # needs a basis large enough that the barrier form factor has decayed.
        # The grid side runs at 8192 substeps, where its own 2nd-order time
        # error is well below the bound, so the monodromy's error shows.
        kappa = 0.25 * REF.brillouin_edge
        spectrum = dl.labeled_spectrum(REF, kappa, grid=grid480, basis_size=131)
        params = dl.PropagationParams(substeps_per_period=8192)
        order = np.argsort(spectrum.mean_kinetic(), kind="stable")[:20]
        worst = 0.0
        for i in order:
            mode = dl.ComplexState(spectrum.samples[:, i], dl.RingDomain(grid480, 1))
            evolved = dl.evolve_ring(mode, REF, params, REF.period, kappa=kappa)
            phase = np.exp(-1j * spectrum.quasienergies[i] * REF.period / REF.hbar)
            expected = phase * mode.psi
            diff = math.sqrt(np.sum(np.abs(evolved.psi - expected) ** 2) * grid480.dx)
            worst = max(worst, diff)
        assert worst < 1e-6


class TestFolding:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(-50, 50), st.floats(0.1, 10))
    def test_folding_lands_in_zone_and_is_idempotent(self, energy, omega):
        spec = replace(REF, omega=omega)
        folded = dl.fold_quasienergy(energy, spec)
        zone = spec.hbar * omega
        assert -zone / 2 <= folded <= zone / 2
        assert dl.fold_quasienergy(folded, spec) == folded

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    def test_circle_gap_symmetric_and_bounded(self, a, b):
        gap = dl.circle_gap(a, b, REF)
        assert gap == dl.circle_gap(b, a, REF)
        assert 0 <= gap <= REF.hbar * REF.omega / 2 + 1e-15


class TestLabeling:
    def test_overlaps_sum_to_reference_norm(self, spectrum_w1):
        weights = spectrum_w1.uniform_weights()
        assert weights.sum() == pytest.approx(1.0, abs=1e-8)
        assert weights[0] == weights.max()

    def test_vanishing_barrier_ground_mode_is_uniform(self, grid480):
        spectrum = dl.labeled_spectrum(
            dl.LatticeSpec(v0=1e-9, amplitude=0.0), 0.0, grid=grid480
        )
        weights = spectrum.uniform_weights()
        assert weights[0] > 1.0 - 1e-6

    def test_third_mode_is_site_localized(self, spectrum_w1):
        # the slow population oscillation is carried by a strongly localized
        # mode that outweighs the second one in any single site
        localization = [
            site_populations(dl.ComplexState(spectrum_w1.samples[:, i],
                                             dl.RingDomain(spectrum_w1.grid, 1)),
                             REF).max()
            for i in (1, 2)
        ]
        assert localization[1] > localization[0]

    def test_interference_period_near_seventy_seven(self, spectrum_w1):
        eps = spectrum_w1.quasienergies
        period = dl.interference_period(eps[2], eps[0], REF)
        assert 73.0 <= period <= 81.0


class TestResonances:
    def test_reference_values(self):
        predictions = dl.predict_resonances(REF, alpha_max=16, max_folds=2)
        by_key = {(p.band_index, p.fold_count): p.omega for p in predictions}
        assert by_key[(1, 1)] == pytest.approx(2 * math.pi**2 / 900, abs=1e-12)
        assert by_key[(11, 1)] == pytest.approx(2.653827, abs=1e-4)
        assert by_key[(16, 2)] == pytest.approx(2.807354, abs=1e-4)

    def test_sorted_and_monotone(self):
        predictions = dl.predict_resonances(REF, alpha_max=20, max_folds=3)
        omegas = [p.omega for p in predictions]
        assert omegas == sorted(omegas)
        for fold in (1, 2, 3):
            series = [p.omega for p in predictions if p.fold_count == fold]
            assert all(a < b for a, b in zip(series, series[1:]))

    def test_cell_length_scaling(self):
        doubled = replace(REF, spacing=2 * REF.spacing)
        a = dl.predict_resonances(REF, 5, 2)
        b = dl.predict_resonances(doubled, 5, 2)
        for pa, pb in zip(a, b):
            assert pb.omega == pytest.approx(pa.omega / 4)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.25, 4.0))
    def test_invariant_under_joint_mass_hbar_rescaling(self, c):
        scaled = replace(REF, hbar=c * REF.hbar, mass=c * REF.mass)
        a = dl.predict_resonances(REF, 4, 2)
        b = dl.predict_resonances(scaled, 4, 2)
        for pa, pb in zip(a, b):
            assert pb.omega == pytest.approx(pa.omega, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            dl.predict_resonances(REF, 0, 1)


def overlap_sweep(spec, start, stop=None, step=1.0, **config):
    """Overlap-only sweep of `spec` over start..stop (one frequency by default)."""
    config = dl.ExperimentConfig(
        lattice=spec, initial=dl.UniformState(), omega_start=start,
        omega_stop=start if stop is None else stop, omega_step=step, **config,
    )
    sweep = dl.run_overlap_sweep(config)
    assert not sweep.failures
    return sweep


def ground_overlap(spec, omega, **config):
    return overlap_sweep(spec, omega, **config).records[0].overlap


class TestScans:
    def test_static_overlap_independent_of_omega(self):
        # fixed basis across the grid: the truncation must not vary with omega
        spec = dl.LatticeSpec(amplitude=0.0)
        overlaps = [ground_overlap(spec, w, basis_size=61) for w in (1.0, 2.2, 3.7)]
        assert np.ptp(overlaps) < 1e-8

    def test_off_resonant_overlap_matches_static_baseline(self):
        driven = ground_overlap(dl.LatticeSpec(omega=4.6), 4.6)
        static = ground_overlap(dl.LatticeSpec(omega=4.6, amplitude=0.0), 4.6)
        assert abs(driven - static) < 0.05

    def test_resonant_overlap_dips_below_neighbours(self):
        values = {
            omega: ground_overlap(dl.LatticeSpec(omega=omega), omega)
            for omega in (2.60, 2.74, 2.90)
        }
        assert values[2.74] < values[2.60] - 0.05
        assert values[2.74] < values[2.90] - 0.05

    def test_free_particle_crossings_sit_at_predictions(self):
        # free quasienergy gaps close exactly at the predicted frequencies;
        # oracle: analytic folded free energies, independent of the sweep
        spec = dl.LatticeSpec(v0=0.0)
        target = dl.predict_resonances(spec, 11, 1)[-1].omega  # alpha = 11
        sweep = overlap_sweep(spec, target - 0.015, target + 0.015, 0.005, basis_size=41)
        assert len(sweep.records) == 7
        alphas = np.array([a for a in range(-20, 21) if a != 0])
        for record in sweep.records:
            spec_w = replace(spec, omega=record.omega)
            analytic = min(
                dl.circle_gap(e, 0.0, spec_w)
                for e in np.atleast_1d(free_quasienergies(spec_w, alphas))
            )
            assert record.gap == pytest.approx(analytic, abs=1e-8)
        minima = dl.detect_dips(sweep.column("omega"), sweep.column("gap"), prominence=0.0)
        assert minima and min(abs(m.omega - target) for m in minima) <= 0.005

    def test_static_lattice_crossings_are_exact(self, grid480):
        # no drive, no band coupling: folded static bands cross with zero gap.
        # Oracle: the band energies themselves, read off at a driving
        # frequency too large for any folding.
        spec = dl.LatticeSpec(amplitude=0.0)
        unfolded = dl.labeled_spectrum(
            replace(spec, omega=100.0), 0.0, grid=grid480, basis_size=41
        )
        energies = np.sort(unfolded.quasienergies)
        ground = energies[0]
        crossings = [
            (e - ground) / n
            for e in energies[1:]
            for n in range(1, 6)
            if 2.5 <= (e - ground) / n <= 2.8
        ]
        assert crossings
        for omega in crossings[:3]:
            assert overlap_sweep(spec, omega, basis_size=41).records[0].gap < 1e-8


class TestBandMatching:
    def test_recovers_shuffled_labels(self, grid480):
        kappa = 0.5 * REF.brillouin_edge
        base = dl.labeled_spectrum(REF, 0.0, grid=grid480, params=FAST, basis_size=41)
        other = dl.labeled_spectrum(REF, kappa, grid=grid480, params=FAST, basis_size=41)
        shuffled = other.relabeled(np.random.default_rng(5).permutation(41))
        matched, _flags = dl.match_band_labels([base, other])
        matched_shuffled, _flags2 = dl.match_band_labels([base, shuffled])
        assert np.allclose(matched[1].quasienergies, matched_shuffled[1].quasienergies)

    def test_requires_common_basis(self, grid480):
        a = dl.labeled_spectrum(REF, 0.0, grid=grid480, params=FAST, basis_size=41)
        b = dl.labeled_spectrum(REF, 0.1 * REF.brillouin_edge, grid=grid480,
                                params=FAST, basis_size=43)
        with pytest.raises(ValueError, match="basis"):
            dl.match_band_labels([a, b])
