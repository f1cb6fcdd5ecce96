import functools
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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


def composition(weights):
    """The splitting pair of the Strang composition S(w_1 h) ... S(w_r h),
    S the kinetic-half, midpoint-potential, kinetic-half substep: kinetic
    (w_1/2, (w_1+w_2)/2, ..., w_r/2), potential w."""
    middle = ((a + b) / 2 for a, b in zip(weights[:-1], weights[1:]))
    return (weights[0] / 2, *middle, weights[-1] / 2), tuple(weights)


def _eigh_factor(spec, q, envelope, idx, t, tau):
    """exp(-i W(t) tau / hbar) by Hermitian eigendecomposition."""
    w = floquet._potential_coefficients(spec, q, envelope, [t])[0][idx]
    vals, vecs = np.linalg.eigh(w)
    return (vecs * np.exp(-1j * vals * tau / spec.hbar)) @ vecs.conj().T


def run_steps(spec, params, basis_size):
    """Steps per period `monodromy_matrix` runs, rounded for its route."""
    return floquet._monodromy_resolution(spec, params, basis_size).substeps // floquet._step_factors()


def eigh_monodromy(spec, kappa, steps, basis_size, scheme=None):
    """Reference monodromy: `steps` steps K(a_0 h) V(b_0 h) K(a_1 h) ...
    V(b_{r-1} h) K(a_r h) of a splitting pair (a, b), by default the
    monodromy's own, over the whole period, potential factor i of step j at
    time (j + a_0 + ... + a_i) h, no two factors merged and every potential
    factor exponentiated by Hermitian eigendecomposition."""
    fractions, potential = scheme or (floquet._KINETIC, floquet._POTENTIAL)
    B = basis_size
    h = spec.period / steps
    k = dl.basis_wavenumbers(spec, B, kappa)
    kinetic = spec.hbar * k**2 / (2 * spec.mass)  # kinetic energy / hbar
    q, envelope = floquet._fourier_ladder(spec, B)
    idx = (B - 1) + np.arange(B)[:, None] - np.arange(B)[None, :]
    U = np.eye(B, dtype=complex)
    for j in range(steps):
        t = j * h
        for a, b in zip(fractions, potential):
            U = np.exp(-1j * kinetic * a * h)[:, None] * U
            t += a * h
            U = _eigh_factor(spec, q, envelope, idx, t, b * h) @ U
        U = np.exp(-1j * kinetic * fractions[-1] * h)[:, None] * U
    return U


@functools.cache
def converged_monodromy(omega, basis_size):
    """The kappa = 0 monodromy of the reference lattice at `omega`, at 1024
    steps (6144 potential factors), converged far below the error of any
    default rule."""
    spec = replace(REF, omega=omega)
    return dl.monodromy_matrix(spec, 0.0, dl.PropagationParams(6144), basis_size)


def _halving_ratio(spec, kappa, exact_steps):
    """max |U - U_exact| at 100 steps over that at 200, against a run of
    `exact_steps` steps of the current scheme."""
    per_step = floquet._step_factors()
    exact = dl.monodromy_matrix(spec, kappa, dl.PropagationParams(per_step * exact_steps), 41)
    errors = [
        np.abs(dl.monodromy_matrix(spec, kappa, dl.PropagationParams(per_step * steps), 41)
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
            # theta = max_j |tau_j| sum|c_n(t_j)| / hbar ~ 4.4 (44 steps): scaled
            # and squared 3 times; 215 is the smallest basis that clears the 5 v0 cutoff
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

    @pytest.mark.parametrize(
        "spec, params, B, squarings",
        [(REF, None, 41, 0), (dl.LatticeSpec(v0=50.0), dl.PropagationParams(256), 215, 3)],
        ids=["reference", "v0-50"],
    )
    def test_theta_bounds_every_factor(self, monkeypatch, spec, params, B, squarings):
        # theta, the Taylor degree's argument times 2^squarings, must bound
        # ||W(t_j)||_2 |tau_j| / hbar for every factor the loop exponentiates
        seen = {"factors": 0}
        taylor_degree, taylor_exp = floquet._taylor_degree, floquet._taylor_exp

        def spy_degree(scaled_theta):
            seen["scaled_theta"] = scaled_theta
            return taylor_degree(scaled_theta)

        def spy_exp(x, degree, k, work):
            seen["factors"] += len(x)
            seen["squarings"] = k
            return taylor_exp(x, degree, k, work)

        monkeypatch.setattr(floquet, "_taylor_degree", spy_degree)
        monkeypatch.setattr(floquet, "_taylor_exp", spy_exp)
        dl.monodromy_matrix(spec, 0.0, params, basis_size=B)
        resolution = floquet._monodromy_resolution(spec, params, B)
        steps = resolution.substeps // floquet._step_factors()
        pieces = floquet._PIECES[resolution.route]
        # 6 factors a step, and the closing factor of the fraction's last step
        assert seen["factors"] == resolution.substeps // pieces + 1
        assert seen["squarings"] == squarings
        theta = seen["scaled_theta"] * 2**squarings
        q, envelope = floquet._fourier_ladder(spec, B)
        idx = (B - 1) + np.arange(B)[:, None] - np.arange(B)[None, :]
        times, taus, _ = floquet._schedule(spec, steps, steps // pieces)
        assert len(taus) == seen["factors"]
        norms = [np.linalg.norm(c[idx], 2)
                 for c in floquet._potential_coefficients(spec, q, envelope, times)]
        assert theta >= (np.array(norms) * np.abs(taus)).max() / spec.hbar

    def test_scheme_is_blanes_moans_srkn6b(self):
        # SRKN_6^b of Blanes & Moan (J. Comput. Appl. Math. 142, 313, 2002),
        # Table 3, potential first; the order conditions that hold exactly:
        # both tuples palindromic (a symmetric step) and each summing to 1
        a1, a2 = 0.245298957184271, 0.604872665711080
        b1, b2, b3 = 0.0829844064174052, 0.396309801498368, -0.0390563049223486
        a3, b4 = 0.5 - (a1 + a2), 1.0 - 2.0 * (b1 + b2 + b3)
        kinetic, potential = floquet._KINETIC, floquet._POTENTIAL
        assert np.allclose(kinetic, (0.0, a1, a2, a3, a3, a2, a1, 0.0), rtol=0, atol=1e-15)
        assert np.allclose(potential, (b1, b2, b3, b4, b3, b2, b1), rtol=0, atol=1e-15)
        assert kinetic == kinetic[::-1] and potential == potential[::-1]
        assert abs(sum(kinetic) - 1.0) <= 1e-15 and abs(sum(potential) - 1.0) <= 1e-15
        # first same as last: a step's closing factor merges with the next one's
        assert floquet._step_factors() == 6
        assert len(floquet._schedule(REF, 8, 8)[1]) == 6 * 8 + 1

    def test_fourth_order_in_the_step(self):
        # halving the step divides the error by about 2^4
        assert 12.0 <= _halving_ratio(REF, 0.3 * REF.brillouin_edge, 1600) <= 20.0

    @pytest.mark.parametrize("weights", [STRANG, YOSHIDA, SUZUKI],
                             ids=["strang", "yoshida", "suzuki"])
    def test_weights_tuple_alone_defines_the_composition(self, monkeypatch, weights):
        # a Strang composition's weights, as their splitting pair, run
        # through the same loop, so the loop holds nothing of the SRKN scheme
        kinetic, potential = composition(weights)
        monkeypatch.setattr(floquet, "_KINETIC", kinetic)
        monkeypatch.setattr(floquet, "_POTENTIAL", potential)
        kappa = 0.3 * REF.brillouin_edge
        assert floquet._step_factors() == len(weights)
        assert floquet._monodromy_resolution(REF, FAST).substeps % len(weights) == 0
        U = dl.monodromy_matrix(REF, kappa, FAST, basis_size=41)
        steps = run_steps(REF, FAST, 41)
        assert np.abs(U - eigh_monodromy(REF, kappa, steps, 41)).max() < 1e-12
        if weights is YOSHIDA:
            assert 12.0 <= _halving_ratio(REF, kappa, 800) <= 20.0

    @pytest.mark.parametrize("omega, B", [(1.0, 41), (2.8, 53)])
    def test_default_resolution_no_worse_than_strang_default(self, omega, B):
        # the default steps must match the accuracy of the 2nd-order default
        # (2048 max(1, omega) substeps)
        spec = replace(REF, omega=omega)
        exact = converged_monodromy(omega, B)
        strang = eigh_monodromy(spec, 0.0, dl.default_params(spec).substeps_per_period, B,
                                composition(STRANG))
        default = dl.monodromy_matrix(spec, 0.0, basis_size=B)
        assert np.abs(default - exact).max() <= np.abs(strang - exact).max()

    @pytest.mark.parametrize("omega, B", [(1.0, 41), (2.8, 53)])
    def test_default_resolution_no_worse_than_yoshida_default(self, monkeypatch, omega, B):
        # the default rule must match the accuracy of the triple-jump default
        # max(200, ceil(100 omega + 0.6 E_edge T / hbar)) jumps rounded up to
        # a multiple of 4, in fewer potential factors
        spec = replace(REF, omega=omega)
        exact = converged_monodromy(omega, B)
        edge_phase = floquet._edge_kinetic(spec, B) * spec.period / spec.hbar
        jumps = 4 * math.ceil(max(200, math.ceil(100.0 * omega + 0.6 * edge_phase)) / 4)
        assert floquet._monodromy_resolution(spec, None, B).substeps < 3 * jumps
        default = dl.monodromy_matrix(spec, 0.0, basis_size=B)
        kinetic, potential = composition(YOSHIDA)
        monkeypatch.setattr(floquet, "_KINETIC", kinetic)
        monkeypatch.setattr(floquet, "_POTENTIAL", potential)
        yoshida = dl.monodromy_matrix(spec, 0.0, dl.PropagationParams(3 * jumps), B)
        assert np.abs(default - exact).max() <= np.abs(yoshida - exact).max()

    @pytest.mark.parametrize("omega, B", [(1.0, 41), (2.4, 49), (2.74, 51), (2.8, 53),
                                          (2.85, 53), (3.2, 57), (2.74, 61), (1.0, 131)])
    def test_default_resolution_no_worse_than_suzuki_default(self, monkeypatch, omega, B):
        # the default rule must match the accuracy of the Suzuki 5-stage
        # default it replaced, max(72, ceil(44 omega + 0.22 E_edge T / hbar))
        # steps rounded up to a multiple of 4, in fewer potential factors
        spec = replace(REF, omega=omega)
        exact = converged_monodromy(omega, B)
        edge_phase = floquet._edge_kinetic(spec, B) * spec.period / spec.hbar
        steps = 4 * math.ceil(max(72, math.ceil(44.0 * omega + 0.22 * edge_phase)) / 4)
        assert floquet._monodromy_resolution(spec, None, B).substeps < 5 * steps
        default = dl.monodromy_matrix(spec, 0.0, basis_size=B)
        kinetic, potential = composition(SUZUKI)
        monkeypatch.setattr(floquet, "_KINETIC", kinetic)
        monkeypatch.setattr(floquet, "_POTENTIAL", potential)
        suzuki = dl.monodromy_matrix(spec, 0.0, dl.PropagationParams(5 * steps), B)
        assert np.abs(default - exact).max() <= np.abs(suzuki - exact).max()

    def test_explicit_substeps_make_whole_steps(self):
        # 256 substeps are ceil(256 / 6) = 43 steps, rounded up to 44 on the
        # quarter route of the reference phases and the half route of the
        # glide alone (264 factors), not on the full route (258)
        params = dl.PropagationParams(substeps_per_period=256)
        assert floquet._monodromy_resolution(REF, params) == (1.0, 264, 41, "quarter")
        glide_only = replace(REF, phases=(0.0, math.pi / 2, 0.0))
        assert floquet._monodromy_resolution(glide_only, params) == (1.0, 264, 41, "half")
        for phases in [(0.0, 0.0, math.pi), (0.0, 1.0, 2.0)]:  # time reversal alone, neither
            asymmetric = replace(REF, phases=phases)
            assert floquet._monodromy_resolution(asymmetric, params) == (1.0, 258, 41, "full")
        # 264 substeps are 44 steps on every route
        params = dl.PropagationParams(substeps_per_period=264)
        assert floquet._monodromy_resolution(REF, params) == (1.0, 264, 41, "quarter")
        assert floquet._monodromy_resolution(asymmetric, params) == (1.0, 264, 41, "full")
        resolution = floquet._monodromy_resolution(REF, None, 131)
        steps = 4 * math.ceil(floquet._default_steps(REF, 131) / 4)
        assert resolution == (1.0, 6 * steps, 131, "quarter")
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


ROUTE_PARAMS = dl.PropagationParams(6 * 88)  # 88 steps: whole quarters on every route


def full_period_loop(spec, kappa, params, basis_size):
    """The monodromy's own step loop over the whole period, no assembly."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dl.LatticeSpec, "drive_symmetries", lambda self: (False, False))
        assert floquet._monodromy_resolution(spec, params, basis_size).route == "full"
        return dl.monodromy_matrix(spec, kappa, params, basis_size)


def coefficient_symmetries(spec, basis_size, steps):
    """Test-local oracle, the check on the potential coefficients c_n(t) at
    the factor times of the period's `steps` steps that the phase rule
    replaced: time reversal c_n(T - t) = c_n(t) for a palindromic scheme,
    the glide c_{-n}(t + T/2) = exp(2i q_n L) c_n(t) for an even `steps`,
    each within 1e-12 of n_p * max(envelope)."""
    q, envelope = floquet._fourier_ladder(spec, basis_size)
    times = floquet._schedule(spec, steps, steps)[0]  # from 0 to T, both ends held
    c = floquet._potential_coefficients(spec, q, envelope, times)
    tol = 1e-12 * spec.sites_per_cell * envelope.max()
    palindromic = (floquet._KINETIC == floquet._KINETIC[::-1]
                   and floquet._POTENTIAL == floquet._POTENTIAL[::-1])
    time_reversal = palindromic and np.abs(c[::-1] - c).max() <= tol
    half = len(c) // 2  # the factor at T/2
    glide = np.abs(c[half:2 * half, ::-1] - np.exp(2j * spec.spacing * q) * c[:half]).max() <= tol
    return bool(time_reversal), bool(glide)


def symmetry_misses(phases):
    """How far the phases miss each identity `drive_symmetries` tests:
    |sin(phi_s)| for time reversal, |phi_{(2-s) mod n} - phi_s| mod 2 pi
    for the glide."""
    n = len(phases)
    return ([abs(math.sin(p)) for p in phases]
            + [abs(math.remainder(phases[(2 - s) % n] - p, 2 * math.pi))
               for s, p in enumerate(phases)])


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
            assert coefficient_symmetries(spec, 41, steps) == expected

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
        # the phase rule and the oracle are two roundoff judgements that meet
        # near 1e-12, so a draw meets each identity to roundoff or misses it
        # by at least 1e-9; `test_symmetry_tolerance_boundary` pins the edge
        assume(all(miss < 1e-15 or miss >= 1e-9 for miss in symmetry_misses(phases)))
        spec = replace(REF, phases=tuple(phases), omega=omega)
        steps = 2 * half_steps  # the glide pairs steps half a period apart
        assert spec.drive_symmetries() == coefficient_symmetries(spec, 41, steps)

    @pytest.mark.parametrize("phases, expected", [
        ((0.0, 9e-13), (True, True)),
        ((0.0, 1e-12), (True, True)),
        ((0.0, 1.1e-12), (False, True)),
    ])
    def test_symmetry_tolerance_boundary(self, phases, expected):
        # time reversal holds while every |sin(phi_s)| <= 1e-12
        assert replace(REF, phases=phases).drive_symmetries() == expected

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
                spectrum = dl.labeled_spectrum(spec, 0.0, params=FAST)
                results[count] = (spectrum.quasienergies, spectrum.sampled(grid),
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
                    dl.diagonalize_monodromy(U, REF, 0.0).sampled(grid)
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
        grid = dl.SupercellGrid.for_spec(REF)
        norms = np.sum(np.abs(spectrum.sampled(grid)) ** 2, axis=0) * grid.dx
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_rejects_a_grid_coarser_than_the_basis(self):
        U = np.diag(np.exp(1j * np.linspace(0.0, 3.0, 41)))
        spectrum = dl.diagonalize_monodromy(U, REF, 0.0)
        with pytest.raises(dl.ConfigError, match="40 points"):
            spectrum.sampled(dl.SupercellGrid(REF.cell_length, 40))
        # on as many points as plane waves the sampled modes are orthonormal
        grid = dl.SupercellGrid(REF.cell_length, 41)
        modes = spectrum.sampled(grid)
        gram = modes.conj().T @ modes * grid.dx
        assert np.abs(gram - np.eye(41)).max() < 1e-12

    def test_rejects_a_grid_of_another_cell(self):
        # on a 45-long grid these 41 modes would sample 0.5 off orthonormal
        spectrum = dl.diagonalize_monodromy(np.eye(41), REF, 0.0)
        with pytest.raises(dl.GridMismatchError, match="cell length 45"):
            spectrum.sampled(dl.SupercellGrid(45.0, 480))

    def test_rejects_non_unitary(self):
        with pytest.raises(dl.UnitarityError):
            dl.diagonalize_monodromy(0.5 * np.eye(5), REF, 0.0)

    def test_rejects_nan_matrix(self):
        # a NaN deviation must fail the check, not reach the Schur routine
        U = np.eye(5, dtype=complex)
        U[1, 3] = np.nan
        with pytest.raises(dl.UnitarityError):
            dl.diagonalize_monodromy(U, REF, 0.0)

    def test_free_particle_quasienergies(self):
        spec = dl.LatticeSpec(v0=0.0)
        U = dl.monodromy_matrix(spec, 0.0, basis_size=41)
        computed = np.sort(dl.diagonalize_monodromy(U, spec, 0.0).quasienergies)
        for alpha in range(-10, 11):
            target = free_quasienergies(spec, alpha)
            assert min(dl.circle_gap(target, value, spec) for value in computed) < 1e-8

    def test_modes_orthonormal(self, spectrum_w1, grid480):
        modes = spectrum_w1.sampled(grid480)
        gram = modes.conj().T @ modes * grid480.dx
        assert np.abs(gram - np.eye(spectrum_w1.basis_size)).max() < 1e-8

    def test_quasienergies_inside_zone(self, spectrum_w1):
        zone = REF.hbar * REF.omega
        eps = spectrum_w1.quasienergies
        assert eps.min() >= -zone / 2 and eps.max() <= zone / 2

    def test_exact_degeneracies_flagged(self):
        spec = dl.LatticeSpec(v0=0.0)
        U = dl.monodromy_matrix(spec, 0.0, basis_size=41)
        spectrum = dl.diagonalize_monodromy(U, spec, 0.0)
        assert spectrum.near_degenerate  # +-alpha pairs are exactly degenerate

    def test_gauge_is_deterministic(self):
        a = dl.labeled_spectrum(REF, 0.0, params=FAST)
        b = dl.labeled_spectrum(REF, 0.0, params=FAST)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_modes_reproduce_their_eigenphase_under_grid_evolution(self, grid480):
        # cross-validates the basis-space monodromy against the grid integrator;
        # needs a basis large enough that the barrier form factor has decayed.
        # The grid side runs at 8192 substeps, where its own 2nd-order time
        # error is well below the bound, so the monodromy's error shows.
        kappa = 0.25 * REF.brillouin_edge
        spectrum = dl.labeled_spectrum(REF, kappa, basis_size=131)
        modes = spectrum.sampled(grid480)
        params = dl.PropagationParams(substeps_per_period=8192)
        order = np.argsort(spectrum.mean_kinetic(), kind="stable")[:20]
        worst = 0.0
        for i in order:
            mode = dl.ComplexState(modes[:, i], dl.RingDomain(grid480, 1))
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

    @pytest.mark.parametrize("points", [41, 82, 480])
    def test_uniform_weights_are_the_grid_overlap(self, points):
        # at kappa = 0 the uniform state is the centre plane wave of the ladder
        grid = dl.SupercellGrid(REF.cell_length, points)
        U = dl.monodromy_matrix(REF, 0.0, FAST, basis_size=41)
        spectrum = dl.diagonalize_monodromy(U, REF, 0.0)
        uniform = dl.make_initial_state(dl.UniformState(), dl.RingDomain(grid, 1))
        overlap = np.abs(spectrum.sampled(grid).conj().T @ uniform.psi * grid.dx) ** 2
        assert np.abs(spectrum.uniform_weights() - overlap).max() < 1e-14

    def test_lone_labels_do_not_depend_on_the_grid(self):
        # labels are set at kappa = 0 and carried to a lone kappa by band
        # matching; a spectrum samples no grid, so a config's grid moves nothing
        config = dl.ExperimentConfig(lattice=REF, initial=dl.UniformState(), substeps=512)
        eps = [dl.spectrum_at(replace(config, grid_points=points), 2.74, 0.1).quasienergies
               for points in (480, 512, 600)]
        assert all(np.array_equal(e, eps[0]) for e in eps[1:])

    def test_vanishing_barrier_ground_mode_is_uniform(self):
        spectrum = dl.labeled_spectrum(dl.LatticeSpec(v0=1e-9, amplitude=0.0), 0.0)
        weights = spectrum.uniform_weights()
        assert weights[0] > 1.0 - 1e-6

    def test_third_mode_is_site_localized(self, spectrum_w1, grid480):
        # the slow population oscillation is carried by a strongly localized
        # mode that outweighs the second one in any single site
        modes = spectrum_w1.sampled(grid480)
        localization = [
            site_populations(dl.ComplexState(modes[:, i], dl.RingDomain(grid480, 1)), REF).max()
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

    def test_static_lattice_crossings_are_exact(self):
        # no drive, no band coupling: folded static bands cross with zero gap.
        # Oracle: the band energies themselves, read off at a driving
        # frequency too large for any folding.
        spec = dl.LatticeSpec(amplitude=0.0)
        unfolded = dl.labeled_spectrum(replace(spec, omega=100.0), 0.0, basis_size=41)
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
    def test_recovers_shuffled_labels(self):
        kappa = 0.5 * REF.brillouin_edge
        base = dl.labeled_spectrum(REF, 0.0, params=FAST, basis_size=41)
        other = dl.labeled_spectrum(REF, kappa, params=FAST, basis_size=41)
        shuffled = other.relabeled(np.random.default_rng(5).permutation(41))
        matched, _flags = dl.match_band_labels([base, other])
        matched_shuffled, _flags2 = dl.match_band_labels([base, shuffled])
        assert np.allclose(matched[1].quasienergies, matched_shuffled[1].quasienergies)

    def test_relabeling_needs_a_permutation(self):
        spectrum = replace(dl.diagonalize_monodromy(np.eye(3), REF, 0.0),
                           near_degenerate=((0, 1), (1, 2)))
        assert spectrum.relabeled([2, 0, 1]).near_degenerate == ((1, 2), (0, 2))
        # a partial, repeated, over-long or non-integer order would leave
        # flags and coefficients of another basis size
        for order in ([0, 1], [0, 1, 1], [0, 1, 2, 3], [0.0, 1.0, 2.0]):
            with pytest.raises(dl.ConfigError, match="permutation"):
                spectrum.relabeled(order)

    def test_requires_common_basis(self):
        a = dl.labeled_spectrum(REF, 0.0, params=FAST, basis_size=41)
        b = dl.labeled_spectrum(REF, 0.1 * REF.brillouin_edge, params=FAST, basis_size=43)
        with pytest.raises(ValueError, match="basis"):
            dl.match_band_labels([a, b])
