"""Mode decomposition of initial states and stroboscopic population dynamics.

An initial state on an M-supercell ring is expanded over the Floquet-Bloch
modes of the M ring-commensurate quasimomenta; the state after any whole
number of driving periods is then a phase-weighted sum of the modes.  The
ring makes the quasimomentum integral an exact finite sum, so this route and
direct split-step integration compute the same object and can be compared
strictly.

The ring is handled as M cells of P points.  By the Bloch theorem a mode at
kappa_j = 2 pi j / (M n_p L) picks up the phase exp(2 pi i j c / M) in cell
c, so summing over kappa is a length-M discrete Fourier transform across
cells: the decomposition projects row j of the cell-axis DFT of the state
onto the supercell modes of kappa_j, and the reconstruction combines the M
supercell states by one inverse DFT.  No mode is ever extended to the ring.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft

from .errors import CompletenessError, DegenerateModeError, GridMismatchError
from .floquet import (
    FloquetSpectrum,
    _Resolution,
    _labeled_spectra,
    _one_blas_thread,
    circle_gap,
    default_basis_size,
)
from .lattice import ComplexState, LatticeSpec, RingDomain
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


def ring_kappas(spec: LatticeSpec, supercells: int) -> np.ndarray:
    """Quasimomentum ladder 2 pi j / (M n_p L) folded into the first zone.

    The fold is on the integer, j -> j - M for 2j > M, so -kappa is bitwise
    in the ladder beside every kappa but the zone edge of an even ring."""
    j = np.arange(supercells)
    j = np.where(2 * j > supercells, j - supercells, j)
    return 2.0 * math.pi * j / (supercells * spec.cell_length)


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
    if ring.cell.length != spec.cell_length:
        raise GridMismatchError("ring cell length does not match the lattice supercell")
    basis_size = basis_size if basis_size is not None else dynamics_basis_size(spec)
    kappas = ring_kappas(spec, ring.supercells).tolist()  # kappa = 0 first
    return _labeled_spectra(spec, kappas, ring.cell, params, basis_size)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Expansion of a ring state over Floquet-Bloch modes at time 0.

    ``coefficients[j, i]`` is the amplitude on mode ``i`` (in the spectrum's
    label order) at ring quasimomentum ``spectra[j].kappa``, whose samples
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
    outside the retained basis (basis too small).
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
        if spectrum.grid != ring.cell:
            raise GridMismatchError("spectrum grid does not match the ring cell")

    blocks = sfft.fft(initial.psi.reshape(ring.supercells, -1), axis=0, norm="ortho")
    coeffs = np.stack([s.samples.conj().T @ b for s, b in zip(spectra, blocks)]) * ring.dx

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
    # the gather copies the modes, so it is skipped when nothing is dropped
    modes = [s.samples if active.all() else s.samples[:, active] for s in dec.spectra]
    coeffs = dec.coefficients[:, active, None]
    eps = np.stack([s.quasienergies[active] for s in dec.spectra])[:, :, None]
    for start in range(0, len(periods), chunk):
        times = periods[start:start + chunk].astype(float) * spec.period
        amp = coeffs * np.exp(-1j * (eps * times) / spec.hbar)
        cells = np.empty((ring.supercells, ring.cell.points, len(times)), dtype=complex)
        for mode, a, out in zip(modes, amp, cells):
            np.matmul(mode, a, out=out)
        cells = sfft.ifft(cells, axis=0, norm="ortho", overwrite_x=True)
        yield cells.reshape(ring.points, -1)


@_one_blas_thread
def stroboscopic_state(dec: SpectralDecomposition, periods: int) -> ComplexState:
    """State after `periods` whole driving periods, assembled from the modes."""
    if periods < 0:
        raise ValueError("periods must be >= 0")
    psi = next(_reconstruct(dec, np.array([periods]), 1))[:, 0]
    return ComplexState(psi, dec.ring)


def select_bands(dec: SpectralDecomposition, labels) -> SpectralDecomposition:
    """Zero every coefficient outside the given band labels (no renormalization,
    so the retained populations stay comparable with the full ones).

    Labels are integers in [0, basis size); ``range(k)`` keeps the k bands
    of largest kappa = 0 uniform-state overlap (see `label_by_overlap`).
    """
    keep = np.zeros(dec.coefficients.shape[1], dtype=bool)
    labels = [operator.index(b) for b in labels]
    if not labels:
        raise ValueError("need at least one band label")
    if not all(0 <= b < len(keep) for b in labels):
        raise ValueError(f"band labels {labels} outside the retained basis [0, {len(keep)})")
    keep[labels] = True
    return replace(dec, coefficients=dec.coefficients * keep[None, :])


def site_count(spec: LatticeSpec, domain) -> int:
    ratio = domain.length / spec.spacing
    count = round(ratio)
    if abs(ratio - count) > _ALIGNMENT_TOL:
        raise ValueError("domain length is not a whole number of sites")
    return int(count)


def site_weights(spec: LatticeSpec, domain) -> np.ndarray:
    """Quadrature weights turning a sampled density into site populations.

    Site ``s`` occupies ``[(s-1) L, s L)``, wrapped into the periodic
    domain.  The density is treated as piecewise linear between samples
    (trapezoid rule); a site boundary falling between grid points splits
    the straddling trapezoid.  Returns weights of shape (sites, points),
    one row per site of the domain.
    """
    n, dx, length = domain.points, domain.dx, domain.length

    def cdf_weights(b: float) -> np.ndarray:
        # integral of the piecewise-linear density over [0, b], b in [0, length]
        w = np.zeros(n)
        pos = b / dx
        cell = int(math.floor(pos + _ALIGNMENT_TOL))
        frac = pos - cell
        if frac < _ALIGNMENT_TOL:
            frac = 0.0
        if cell > 0:
            w[0] += dx / 2
            w[1:cell] += dx
            w[cell % n] += dx / 2
        if frac > 0.0:
            h = frac * dx
            w[cell % n] += (h / 2.0) * (2.0 - frac)
            w[(cell + 1) % n] += (h / 2.0) * frac
        return w

    full = cdf_weights(length)
    weights = np.empty((site_count(spec, domain), n))
    for s in range(len(weights)):
        lo = (float(s - 1) * spec.spacing) % length
        hi = (float(s) * spec.spacing) % length
        if hi <= _ALIGNMENT_TOL * dx:
            hi = length
        if lo < hi:
            weights[s] = cdf_weights(hi) - cdf_weights(lo)
        else:
            weights[s] = full - cdf_weights(lo) + cdf_weights(hi)
    return weights


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


@_one_blas_thread
def population_trace(dec: SpectralDecomposition, periods) -> PopulationTrace:
    """Stroboscopic site populations from the mode expansion."""
    periods = np.asarray(list(periods), dtype=int)
    if (periods < 0).any():
        raise ValueError("periods must be >= 0")
    weights = site_weights(dec.spec, dec.ring)
    values = np.empty((len(weights), len(periods)))
    for start, states in zip(range(0, len(periods), _TRACE_CHUNK),
                             _reconstruct(dec, periods, _TRACE_CHUNK)):
        values[:, start:start + _TRACE_CHUNK] = weights @ (np.abs(states) ** 2)
    return PopulationTrace(periods=periods, values=values, numerics=dec.spectra[0].numerics)


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
    periods = np.arange(max_period + 1)
    values = np.empty((len(weights), len(periods)))
    values[:, 0] = weights @ (np.abs(initial.psi) ** 2)
    if max_period > 0:
        states = _split_step(initial, spec, params, max_period * spec.period)
        for m, psi in enumerate(states, start=1):
            values[:, m] = weights @ (np.abs(psi) ** 2)
    numerics = _Resolution(float(spec.omega), params.substeps_per_period, None, None)
    return PopulationTrace(periods=periods, values=values, numerics=numerics._asdict())


def interference_period(eps_a: float, eps_b: float, spec: LatticeSpec) -> float:
    """Beat period, in driving periods, of two interfering modes:
    hbar*omega divided by their quasienergy distance on the periodic zone."""
    gap = circle_gap(eps_a, eps_b, spec)
    if gap == 0.0:
        raise DegenerateModeError(
            "degenerate quasienergies: interference period is infinite"
        )
    return spec.hbar * spec.omega / gap
