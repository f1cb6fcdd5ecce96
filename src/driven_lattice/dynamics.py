"""Mode decomposition of initial states and stroboscopic population dynamics.

An initial state on an M-supercell ring is expanded over the Floquet-Bloch
modes of the M ring-commensurate quasimomenta; the state after any whole
number of driving periods is then a phase-weighted sum of the modes.  The
ring makes the quasimomentum integral an exact finite sum, so this route and
direct split-step integration compute the same object and can be compared
strictly.

Plane wave a of the ladder at kappa_j = 2 pi j / (M n_p L) is bin
(j + M a) mod MP of the FFT of the ring's MP samples, so modes held as
plane-wave coefficients meet a ring state in one ring FFT: the
decomposition projects each kappa's B bins with the conjugate coefficients,
and the reconstruction scatters the evolved plane-wave amplitudes into
their bins and runs one inverse FFT.  With at least B points per cell the
M B bins are distinct, so this is the grid projection exactly.  Both
population traces, this one and the direct integrator's, reduce states to
sites through `site_weights`, each sample's hat function integrated over a site.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np
import scipy.fft as sfft

from .errors import CompletenessError, ConfigError, DegenerateModeError
from .floquet import (
    FloquetSpectrum,
    _Resolution,
    _check_grid_resolves,
    _labeled_spectra,
    _one_blas_thread,
    circle_gap,
    default_basis_size,
)
from .lattice import ComplexState, LatticeSpec, RingDomain, _check_cell
from .propagate import PropagationParams, _split_step

_RESIDUAL_TOL = 1e-4
_NORM_TOL = 1e-6
_ALIGNMENT_TOL = 1e-9
# stroboscopic frames reconstructed per batch by `population_trace`
_TRACE_CHUNK = 128


def dynamics_basis_size(spec: LatticeSpec) -> int:
    """Default basis of `ring_spectra`, so of ring and supercell evolution;
    a sweep's populations use `default_basis_size`.  At least 61 modes, as
    quasienergy errors enter stroboscopic phases times the horizon: 61 keep
    the reference lattice within ~1e-4 of direct integration over 400 periods."""
    return max(default_basis_size(spec), 61)


def _ring_waves(supercells: int, basis: int = 1) -> np.ndarray:
    """(M, B) ring wavenumbers j + M a, in units of 2 pi / (M n_p L), of plane
    wave a of the ladder at quasimomentum j, folded j -> j - M for 2j > M."""
    j = np.arange(supercells)
    j = np.where(2 * j > supercells, j - supercells, j)
    return j[:, None] + supercells * (np.arange(basis) - (basis - 1) // 2)


def ring_kappas(spec: LatticeSpec, supercells: int) -> np.ndarray:
    """Quasimomentum ladder 2 pi j / (M n_p L) folded into the first zone.

    The fold is on the integer, so -kappa is bitwise in the ladder beside
    every kappa but the zone edge of an even ring."""
    return 2.0 * math.pi * _ring_waves(supercells)[:, 0] / (supercells * spec.cell_length)


def ring_spectra(
    spec: LatticeSpec,
    ring: RingDomain,
    *,
    params: PropagationParams | None = None,
    basis_size: int | None = None,
) -> tuple[tuple[FloquetSpectrum, ...], tuple[tuple[int, int], ...]]:
    """Labeled spectra at every ring quasimomentum, from one pass over the
    shared potential factors: kappa = 0 ordered by uniform-state overlap,
    the others continuing its labels by maximal overlap of periodic parts.
    Returns (spectra, ambiguity flags)."""
    _check_cell(ring.cell, spec)
    basis_size = basis_size if basis_size is not None else dynamics_basis_size(spec)
    kappas = ring_kappas(spec, ring.supercells).tolist()  # kappa = 0 first
    return _labeled_spectra(spec, kappas, params, basis_size)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Expansion of a ring state over Floquet-Bloch modes at time 0.

    ``coefficients[j, i]`` is the amplitude on mode ``i`` (in the spectrum's
    label order) at ring quasimomentum ``spectra[j].kappa``, whose coefficients
    and quasienergies the reconstruction reads from ``spectra[j]``.
    ``residual`` is the squared norm left outside the retained basis,
    measured by reconstruction at zero periods.
    """

    spec: LatticeSpec
    ring: RingDomain
    spectra: tuple[FloquetSpectrum, ...]
    coefficients: np.ndarray
    residual: float

    def total_weight(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))


@_one_blas_thread
def decompose(initial: ComplexState, spectra) -> SpectralDecomposition:
    """Project a ring state onto the Floquet-Bloch modes of every ring kappa.

    Raises CompletenessError when more than 1e-4 of the squared norm falls
    outside the retained basis (basis too small), and ConfigError for a cell
    grid of fewer points than the basis (`_check_grid_resolves`).
    """
    ring = initial.grid
    spectra = tuple(spectra)
    if len(spectra) != ring.supercells:
        raise ValueError(
            f"need one spectrum per ring quasimomentum "
            f"({ring.supercells}), got {len(spectra)}"
        )
    if not abs(initial.norm_squared() - 1.0) <= _NORM_TOL:  # a NaN norm fails too
        raise ValueError("initial state must be normalized")
    spec = spectra[0].spec
    tol = _ALIGNMENT_TOL * 2.0 * spec.brillouin_edge
    basis = spectra[0].basis_size
    for spectrum, kappa in zip(spectra, ring_kappas(spec, ring.supercells)):
        if abs(spectrum.kappa - kappa) > tol:
            raise ValueError("spectra are not aligned with the ring kappa ladder")
        if spectrum.basis_size != basis:
            raise ValueError("spectra must share one basis size")
    _check_cell(ring.cell, spec)
    _check_grid_resolves(ring.cell.points, basis)

    bins = _ring_waves(ring.supercells, basis) % ring.points
    waves = sfft.fft(initial.psi)[bins] * (ring.dx / math.sqrt(ring.length))
    coeffs = np.stack([s.coefficients.conj().T @ w for s, w in zip(spectra, waves)])

    dec = SpectralDecomposition(spec=spec, ring=ring, spectra=spectra, coefficients=coeffs,
                                residual=0.0)
    rebuilt = next(_reconstruct(dec, np.array([0]), 1))[:, 0]
    residual = float(np.sum(np.abs(initial.psi - rebuilt) ** 2) * ring.dx)
    if not residual <= _RESIDUAL_TOL:
        raise CompletenessError(
            f"decomposition residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e}; "
            "basis too small for this state"
        )
    return replace(dec, residual=residual)


def _reconstruct(dec: SpectralDecomposition, periods: np.ndarray, chunk: int):
    """States at the given period counts, yielded `chunk` counts at a time as
    columns (points x m).  Bands without a coefficient at any kappa are
    skipped."""
    spec, ring = dec.spec, dec.ring
    active = np.any(dec.coefficients != 0, axis=0)
    modes = np.stack([s.coefficients[:, active] for s in dec.spectra])
    coeffs = dec.coefficients[:, active, None] / math.sqrt(ring.length)
    eps = np.stack([s.quasienergies[active] for s in dec.spectra])[:, :, None]
    bins = (_ring_waves(ring.supercells, modes.shape[1]) % ring.points).ravel()
    for start in range(0, len(periods), chunk):
        times = periods[start:start + chunk].astype(float) * spec.period
        amp = coeffs * np.exp(-1j * (eps * times) / spec.hbar)
        waves = np.zeros((len(times), ring.points), dtype=complex)
        waves[:, bins] = np.matmul(modes, amp).reshape(len(bins), -1).T
        yield sfft.ifft(waves, norm="forward", overwrite_x=True).T


@_one_blas_thread
def stroboscopic_state(dec: SpectralDecomposition, periods: int) -> ComplexState:
    """State after `periods` whole driving periods, assembled from the modes."""
    if periods < 0:
        raise ValueError("periods must be >= 0")
    psi = next(_reconstruct(dec, np.array([periods]), 1))[:, 0]
    return ComplexState(psi, dec.ring)


def _check_bands(labels, basis_size: int) -> list[int]:
    """The labels as integers; a ConfigError unless one at least and each in [0, basis_size)."""
    labels = [operator.index(b) for b in labels]  # a float label is a TypeError
    if not (labels and all(0 <= b < basis_size for b in labels)):
        raise ConfigError(f"need band labels in [0, {basis_size}), got {labels}")
    return labels


def select_bands(dec: SpectralDecomposition, labels) -> SpectralDecomposition:
    """Zero every coefficient outside the given band labels (no renormalization,
    so the retained populations stay comparable with the full ones).

    Labels are integers in [0, basis size); ``range(k)`` keeps the k bands
    of largest kappa = 0 uniform-state overlap (see `label_by_overlap`).
    """
    keep = np.zeros(dec.coefficients.shape[1], dtype=bool)
    keep[_check_bands(labels, len(keep))] = True
    return replace(dec, coefficients=dec.coefficients * keep[None, :])


def site_weights(spec: LatticeSpec, domain: RingDomain) -> np.ndarray:
    """Quadrature weights turning a sampled density into site populations.

    Site ``s`` occupies ``[(s-1) L, s L)``, wrapped into the periodic
    domain.  The density is linear between samples (trapezoid rule), so
    sample ``i`` weighs ``dx (H((hi - x_i) / dx) - H((lo - x_i) / dx))`` in
    a site ``[lo, hi)``, H the integral of the unit hat ``max(0, 1 - |v|)``.
    Each site takes its own window of samples, indices modulo the ring, so
    one formula covers a site across the seam.  Returns weights of shape
    (sites, points), one row per site of the domain, whose cell must be the
    lattice's supercell.
    """
    def hat_integral(v):
        v = np.clip(v, -1.0, 1.0)
        return np.where(v < 0.0, (1.0 + v) ** 2 / 2.0, 1.0 - (1.0 - v) ** 2 / 2.0)

    _check_cell(domain.cell, spec)
    n, dx = domain.points, domain.dx
    sites = domain.supercells * spec.sites_per_cell
    edges = np.arange(-1, sites) * spec.spacing / dx  # site s spans [edges[s], edges[s+1]]
    first = np.floor(edges[:-1])
    window = first[:, None] + np.arange(int((np.ceil(edges[1:]) - first).max()) + 1)
    w = dx * (hat_integral(edges[1:, None] - window) - hat_integral(edges[:-1, None] - window))
    bins = np.arange(sites)[:, None] * n + window.astype(int) % n
    return np.bincount(bins.ravel(), w.ravel(), minlength=sites * n).reshape(sites, n)


def site_populations(state: ComplexState, spec: LatticeSpec) -> np.ndarray:
    """Probability integrated over each site interval of the state's domain."""
    return site_weights(spec, state.grid) @ (np.abs(state.psi) ** 2)


@dataclass(frozen=True)
class PopulationTrace:
    """Site populations n_s at stroboscopic times m T, shape (sites, times),
    one row for every site of the ring, and the numerics (omega, substeps,
    basis size, route) of the run that computed them."""

    periods: np.ndarray
    values: np.ndarray
    numerics: dict | None = None

    @property
    def site_indices(self) -> np.ndarray:
        return np.arange(len(self.values))

    def totals(self) -> np.ndarray:
        return self.values.sum(axis=0)

    def peak_to_peak(self, sites=None, window=None) -> float:
        """Largest max-min excursion of any selected site over a period window
        (inclusive bounds); every site and period by default."""
        values = self.values
        if sites is not None:
            sites = [operator.index(s) for s in sites]
            missing = [s for s in sites if not 0 <= s < len(values)]
            if missing or not sites:
                raise ValueError(
                    f"sites {missing or sites} are not on the {len(values)}-site trace")
            values = values[sites]
        if window is not None:
            lo, hi = window
            values = values[:, (self.periods >= lo) & (self.periods <= hi)]
            if values.size == 0:
                raise ValueError(f"window {window} holds no period of the trace")
        return float((values.max(axis=1) - values.min(axis=1)).max())


def _population_trace(weights, blocks, periods, numerics) -> PopulationTrace:
    """The trace of `periods` from their states, in blocks of columns (points x m)."""
    values = np.hstack([np.empty((len(weights), 0)),
                        *(weights @ (np.abs(states) ** 2) for states in blocks)])
    return PopulationTrace(periods=periods, values=values, numerics=numerics)


@_one_blas_thread
def population_trace(dec: SpectralDecomposition, periods) -> PopulationTrace:
    """Stroboscopic site populations from the mode expansion."""
    periods = np.asarray(list(periods), dtype=int)
    if (periods < 0).any():
        raise ValueError("periods must be >= 0")
    return _population_trace(site_weights(dec.spec, dec.ring),
                             _reconstruct(dec, periods, _TRACE_CHUNK),
                             periods, dec.spectra[0].numerics)


def direct_population_trace(
    initial: ComplexState,
    spec: LatticeSpec,
    params: PropagationParams,
    max_period: int,
) -> PopulationTrace:
    """Site populations from direct ring integration, one split-step pass
    over `max_period` periods that hands back the state at each whole
    period.

    Independent of the mode decomposition; used as the brute-force reference
    for the stroboscopic reconstruction.
    """
    if max_period < 0:
        raise ValueError("periods must be >= 0")
    weights = site_weights(spec, initial.grid)
    states = _split_step(initial, spec, params, max_period * spec.period) if max_period else ()
    numerics = _Resolution(float(spec.omega), params.substeps_per_period, None, None)
    # one column a block: a column of a wider product can differ in its last bits
    return _population_trace(weights, (psi[:, None] for psi in chain([initial.psi], states)),
                             np.arange(max_period + 1), numerics._asdict())


def interference_period(eps_a: float, eps_b: float, spec: LatticeSpec) -> float:
    """Beat period, in driving periods, of two interfering modes:
    hbar*omega divided by their quasienergy distance on the periodic zone."""
    gap = circle_gap(eps_a, eps_b, spec)
    if gap == 0.0:
        raise DegenerateModeError(
            "degenerate quasienergies: interference period is infinite"
        )
    return spec.hbar * spec.omega / gap
