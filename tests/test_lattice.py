import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driven_lattice as dl

REF = dl.LatticeSpec()


def offset(spec, s, t):
    """Test-local lateral displacement of barrier s at time t."""
    return spec.amplitude * math.cos(spec.omega * t + spec.phases[s % spec.sites_per_cell])


def wide_window_potential(x, t, spec, extra=3):
    """Test-local barrier sum over a window `extra` barriers wider on each
    side than every barrier within 8 widths plus the amplitude of `x`."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    margin = 8 * spec.delta + spec.amplitude
    lo = math.floor((x.min() - margin) / spec.spacing) - extra
    hi = math.ceil((x.max() + margin) / spec.spacing) + extra
    total = np.zeros_like(x)
    for s in range(lo, hi + 1):
        y = (x - s * spec.spacing - offset(spec, s, t)) / spec.delta
        total += np.exp(-y * y)
    return spec.v0 * total


class TestSpec:
    def test_derived_quantities(self):
        assert REF.period == pytest.approx(2 * math.pi)
        assert REF.cell_length == 30.0
        assert REF.sites_per_cell == 3
        assert REF.brillouin_edge == pytest.approx(math.pi / 30)

    def test_phase_list_wraps(self):
        # offsets() gives a cell's n_p sites; barrier s moves with phase
        # s mod n_p, so sites 4 and -1 are displaced as sites 1 and 2 are
        t = 0.7
        d = REF.offsets([t])[0]
        assert d.tolist() == [offset(REF, s, t) for s in range(3)]
        for s, site in ((4, 1), (-1, 2)):
            x = s * REF.spacing + d[site]
            assert dl.potential(x, t, REF) == pytest.approx(REF.v0, rel=1e-12)

    def test_static_lattices(self):
        assert not REF.static
        assert dl.LatticeSpec(v0=0.0).static and dl.LatticeSpec(amplitude=0.0).static
        # an undriven lattice has both drive symmetries whatever its phases
        undriven = dl.LatticeSpec(amplitude=0.0, phases=(0.0, 1.0, 2.0))
        assert undriven.drive_symmetries() == (True, True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"v0": -1.0},
            {"delta": 0.0},
            {"spacing": -2.0},
            {"omega": 0.0},
            {"mass": 0.0},
            {"hbar": -1.0},
            {"amplitude": -0.5},
            {"phases": ()},
            # NaN fails no comparison, so each is checked for finiteness
            *({name: value} for name in ("v0", "delta", "spacing", "amplitude", "omega",
                                         "mass", "hbar") for value in (math.nan, math.inf)),
            {"phases": (0.0, math.nan, 0.0)},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            dl.LatticeSpec(**kwargs)

    def test_free_particle_limit_allowed(self):
        assert dl.LatticeSpec(v0=0.0).v0 == 0.0


class TestPotential:
    def test_barrier_peak_is_v0(self):
        # neighbours sit >= L - 2A = 8 widths*16 away: tails ~ exp(-256)
        t = 0.37
        for s in (-3, 0, 1, 2, 5):
            x = s * REF.spacing + offset(REF, s, t)
            assert dl.potential(x, t, REF) == pytest.approx(REF.v0, rel=1e-12)

    def test_static_midpoint_nearly_zero(self):
        spec = dl.LatticeSpec(amplitude=0.0)
        # two barriers at distance L/2 = 10 delta: 2 exp(-100)
        value = float(dl.potential(spec.spacing / 2, 0.0, spec))
        assert value == pytest.approx(2 * spec.v0 * math.exp(-100), rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(-45.0, 45.0),
        st.floats(0.0, 25.0),
        st.sampled_from((REF, dl.LatticeSpec(v0=3.0, delta=1.2, spacing=7.0, amplitude=2.5))),
    )
    def test_window_keeps_every_barrier_above_roundoff(self, x, t, spec):
        # a lone point is the narrowest window: x, the barrier equilibria and
        # the cell seams; a shifted cell of grid points is the split step's
        cell = spec.cell_length
        points = np.concatenate(([x], spec.spacing * np.arange(-4, 5), cell * np.arange(-2, 3)))
        windows = [*points, x + np.arange(480) * cell / 480]
        for xs in windows:
            diff = np.abs(dl.potential(xs, t, spec) - wide_window_potential(xs, t, spec))
            assert diff.max() <= 1e-15 * spec.v0

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-45.0, 45.0), st.floats(0.0, 25.0))
    def test_supercell_periodicity(self, x, t):
        a = float(dl.potential(x, t, REF))
        b = float(dl.potential(x + REF.cell_length, t, REF))
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-45.0, 45.0), st.floats(0.0, 25.0))
    def test_time_periodicity(self, x, t):
        a = float(dl.potential(x, t, REF))
        b = float(dl.potential(x, t + REF.period, REF))
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-45.0, 45.0), st.floats(0.0, 25.0))
    def test_equal_phases_make_it_site_periodic(self, x, t):
        spec = dl.LatticeSpec(phases=(0.3, 0.3, 0.3))
        a = float(dl.potential(x, t, spec))
        b = float(dl.potential(x + spec.spacing, t, spec))
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


class TestGrids:
    def test_supercell_grid_covers_one_cell(self):
        grid = dl.SupercellGrid.for_spec(REF, 480)
        x = grid.positions()
        assert x[0] == 0.0
        assert x[-1] == pytest.approx(REF.cell_length - grid.dx)
        assert grid.dx <= REF.delta / 4

    def test_resolution_guard(self):
        with pytest.raises(ValueError, match="resolve"):
            dl.SupercellGrid.for_spec(REF, 64)

    def test_ring_domain(self):
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 16)
        assert ring.length == pytest.approx(16 * 30.0)
        assert ring.points == 16 * 480
        with pytest.raises(ValueError):
            dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 0)


class TestStates:
    def test_uniform_amplitude_and_norm(self):
        grid = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 1)
        state = dl.make_initial_state(dl.UniformState(), grid)
        assert np.allclose(state.psi, 1.0 / math.sqrt(30.0))
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-14)

    def test_gaussian_normalization(self):
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 16)
        state = dl.make_initial_state(dl.GaussianState(240.0, 20 * math.pi), ring)
        assert abs(state.norm_squared() - 1.0) < 1e-12

    @pytest.mark.parametrize("center, width", [
        (0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0), (0.0, 0.0)])
    def test_gaussian_rejects_bad_parameters(self, center, width):
        with pytest.raises(ValueError):
            dl.GaussianState(center, width)

    def test_gaussian_too_wide_is_rejected(self):
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 4)
        with pytest.raises(ValueError, match="boundary"):
            dl.make_initial_state(dl.GaussianState(60.0, 20 * math.pi), ring)

    @pytest.mark.parametrize("center", [1e308, -1e308, 1e200, -5.0, 70.0])
    def test_gaussian_center_out_of_range_is_rejected(self, center):
        # off the 60-long ring: far enough that the seam check would square
        # the center past a float's range, or near enough that a narrow
        # packet passes it against its off-ring peak yet samples to a
        # one-sided tail
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 2)
        with pytest.raises(ValueError, match="center"):
            dl.make_initial_state(dl.GaussianState(center, 1.0), ring)

    def test_gaussian_momentum_spread(self):
        # oracle: the Fourier transform of the Gaussian is Gaussian with
        # |psi~|^2 standard deviation 1 / (sigma sqrt(2))
        sigma = 20 * math.pi
        ring = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 16)
        state = dl.make_initial_state(dl.GaussianState(240.0, sigma), ring)
        spectrum = np.abs(np.fft.fft(state.psi)) ** 2
        k = 2 * math.pi * np.fft.fftfreq(ring.points, ring.dx)
        mean = (k * spectrum).sum() / spectrum.sum()
        std = math.sqrt((((k - mean) ** 2) * spectrum).sum() / spectrum.sum())
        assert std == pytest.approx(1.0 / (sigma * math.sqrt(2.0)), rel=0.01)

    def test_state_samples_are_frozen(self):
        grid = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 1)
        state = dl.make_initial_state(dl.UniformState(), grid)
        with pytest.raises(ValueError):
            state.psi[0] = 1.0


class TestInner:
    def test_normalized_self_inner(self):
        grid = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 480), 1)
        state = dl.make_initial_state(dl.GaussianState(15.0, 3.0), grid)
        assert dl.inner(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_plane_wave_orthogonality(self):
        grid = dl.RingDomain(dl.SupercellGrid.for_spec(REF, 512), 1)
        x = grid.positions()
        k1 = 2 * math.pi * 3 / grid.length
        k2 = 2 * math.pi * 7 / grid.length
        a = dl.ComplexState(np.exp(1j * k1 * x) / math.sqrt(grid.length), grid)
        b = dl.ComplexState(np.exp(1j * k2 * x) / math.sqrt(grid.length), grid)
        assert abs(dl.inner(a, b)) < 1e-12

    def test_uniform_gaussian_overlap_against_refined_quadrature(self):
        # independent oracle: repeat the quadrature at double resolution
        values = []
        for points in (512, 1024):
            grid = dl.RingDomain(dl.SupercellGrid.for_spec(REF, points), 1)
            u = dl.make_initial_state(dl.UniformState(), grid)
            g = dl.make_initial_state(dl.GaussianState(15.0, 3.0), grid)
            values.append(dl.inner(u, g))
        assert values[0].real > 0.0
        assert abs(values[0].imag) < 1e-12
        assert abs(values[0] - values[1]) < 1e-9

    def test_grid_mismatch_raises(self):
        a, b = (dl.make_initial_state(dl.UniformState(),
                                      dl.RingDomain(dl.SupercellGrid.for_spec(REF, n), 1))
                for n in (480, 512))
        with pytest.raises(dl.GridMismatchError):
            dl.inner(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sesquilinearity_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        grid = dl.RingDomain(dl.SupercellGrid(30.0, 32), 1)
        va = rng.normal(size=32) + 1j * rng.normal(size=32)
        vb = rng.normal(size=32) + 1j * rng.normal(size=32)
        a = dl.ComplexState(va, grid)
        b = dl.ComplexState(vb, grid)
        lam = complex(rng.normal(), rng.normal())
        scaled = dl.ComplexState(lam * vb, grid)
        assert dl.inner(a, scaled) == pytest.approx(lam * dl.inner(a, b), rel=1e-12)
        assert dl.inner(a, b) == pytest.approx(np.conj(dl.inner(b, a)), rel=1e-12)
        assert dl.inner(a, a).real >= 0.0
