"""One-period propagator (monodromy) construction and Floquet-Bloch spectra.

The monodromy is integrated directly in a truncated plane-wave basis
``exp(i (2 pi a / (n_p L) + kappa) x)``, |a| <= (B-1)/2, with the same
symmetric kinetic-potential-kinetic splitting as the grid propagators but
with the potential represented by its exact Fourier-coefficient (Toeplitz)
matrix.  Each substep's potential factor ``exp(-i W dt / hbar)`` is its
Taylor polynomial, of the smallest degree whose remainder bound
``theta^(m+1) / (m+1)!`` (theta bounds ``||W|| dt / hbar``) is below
roundoff, so every factor is unitary on the truncated space to roundoff and
the product is unitary regardless of basis size; basis adequacy is checked
separately through the kinetic-energy cutoff and the grid-propagator
consistency tests.

The potential matrix ``W_ba = c_{b-a}(t)`` does not depend on kappa; only
the kinetic diagonal does.  A whole kappa ladder therefore shares one stack
of potential factors: ``monodromy_matrix`` given M kappas evaluates each
chunk of Taylor factors once and advances every kappa's propagator with its
own ``(B, B)`` product, so each slice is bitwise the one-kappa result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import schur
from scipy.optimize import linear_sum_assignment

from .errors import ConfigError, UnitarityError
from .lattice import ComplexState, LatticeSpec, SupercellGrid, UniformState, make_initial_state
from .propagate import PropagationParams, default_params

_UNITARITY_TOL = 1e-8
_EIGENPHASE_TOL = 1e-8
_DEGENERACY_REL_TOL = 1e-10
_OVERLAP_TIE_TOL = 1e-12
_MATCH_AMBIGUITY_TOL = 1e-3
_SUBSTEP_CHUNK = 256
_MIN_BASIS_SIZE = 41
# a basis is adequate when its edge kinetic energy reaches this multiple of
# the lattice's energy scale max(v0, hbar*omega)
_CUTOFF_FACTOR = 5.0

# The eigenvalue accuracy of a truncated-basis monodromy degrades near the
# basis edge; reports keep only this many best-converged modes.
REPORTED_MODES = 20


def fold_quasienergy(value, spec: LatticeSpec):
    """Fold an energy into the first temporal zone [-hbar*omega/2, +hbar*omega/2]."""
    zone = spec.hbar * spec.omega
    value = np.asarray(value, dtype=float)
    folded = value - zone * np.round(value / zone)
    return folded if folded.ndim else float(folded)


def circle_gap(eps_a: float, eps_b: float, spec: LatticeSpec) -> float:
    """Distance between two quasienergies on the periodic zone."""
    return abs(fold_quasienergy(eps_a - eps_b, spec))


def basis_wavenumbers(spec: LatticeSpec, basis_size: int, kappa: float = 0.0) -> np.ndarray:
    half = (basis_size - 1) // 2
    return 2.0 * math.pi * np.arange(-half, half + 1) / spec.cell_length + kappa


def default_basis_size(spec: LatticeSpec) -> int:
    """Smallest odd basis, at least 41, whose edge kinetic energy is
    >= _CUTOFF_FACTOR max(v0, hbar*omega)."""
    cutoff = _CUTOFF_FACTOR * max(spec.v0, spec.hbar * spec.omega)
    k_needed = math.sqrt(2.0 * spec.mass * cutoff) / spec.hbar
    half = int(math.ceil(k_needed * spec.cell_length / (2.0 * math.pi)))
    return max(2 * half + 1, _MIN_BASIS_SIZE)


def _fourier_ladder(spec: LatticeSpec, basis_size: int):
    """Coupling wavenumbers q_n and the barrier form-factor envelope."""
    q = 2.0 * math.pi * np.arange(-(basis_size - 1), basis_size) / spec.cell_length
    envelope = (spec.v0 * spec.delta * math.sqrt(math.pi) / spec.cell_length) * np.exp(
        -((q * spec.delta / 2.0) ** 2)
    )
    return q, envelope


def _potential_coefficients(spec: LatticeSpec, q, envelope, times) -> np.ndarray:
    """Fourier coefficients c_n(t) of the potential for a batch of times."""
    offsets = spec.amplitude * np.cos(
        spec.omega * np.asarray(times)[:, None] + np.asarray(spec.phases)[None, :]
    )
    centers = np.arange(spec.sites_per_cell) * spec.spacing + offsets  # (nt, n_p)
    phase = np.exp(-1j * q[None, :, None] * centers[:, None, :]).sum(axis=2)
    return envelope[None, :] * phase  # (nt, 2B-1)


def _taylor_degree(theta: float) -> int:
    """Smallest degree m >= 1 with theta^(m+1) / (m+1)! below 2^-53.

    For Hermitian W and theta >= ||W|| dt / hbar this bounds the 2-norm of
    the Taylor remainder of exp(-i W dt / hbar), because the integral form
    of the remainder carries the unitary factor exp(-i s W dt / hbar).
    """
    m, remainder = 1, theta * theta / 2.0
    while remainder >= 2.0**-53:
        m += 1
        remainder *= theta / (m + 1)
    return m


def monodromy_matrix(
    spec: LatticeSpec,
    kappa,
    params: PropagationParams | None = None,
    basis_size: int | None = None,
) -> np.ndarray:
    """One-period propagator over [0, T] in the twisted plane-wave basis.

    Entry ``U[b, a]`` is the coefficient of basis state b in the propagated
    basis state a, so ``U @ c`` advances a coefficient vector by one period.
    A scalar ``kappa`` gives one ``(B, B)`` matrix; a 1-D array of M kappas
    gives the ``(M, B, B)`` stack, built in one pass over the potential
    factors they share.
    """
    params = params if params is not None else default_params(spec)
    B = basis_size if basis_size is not None else default_basis_size(spec)
    if B % 2 == 0 or B < 1:
        raise ConfigError("basis_size must be odd and positive")
    kappas = np.asarray(kappa, dtype=float)
    if kappas.ndim > 1 or kappas.size == 0:
        raise ConfigError("kappa must be a number or a non-empty 1-D array")
    if np.abs(kappas).max() > spec.brillouin_edge * (1 + 1e-12):
        raise ConfigError("kappa outside the first Brillouin zone")
    edge_kinetic = spec.hbar**2 * (2.0 * math.pi * ((B - 1) // 2) / spec.cell_length) ** 2
    edge_kinetic /= 2.0 * spec.mass
    # an undriven lattice absorbs no drive quanta, so only v0 sets the scale
    demand = _CUTOFF_FACTOR * max(
        spec.v0, spec.hbar * spec.omega if spec.amplitude > 0 else 0.0)
    if spec.v0 > 0 and edge_kinetic < demand:
        raise ConfigError(
            f"basis_size={B} puts the kinetic cutoff {edge_kinetic:.3g} below "
            f"{_CUTOFF_FACTOR:g}*max(v0, hbar*omega); enlarge the basis"
        )

    n = params.substeps_per_period
    dt = spec.period / n
    # one kinetic ladder per kappa, each built exactly as for a lone kappa
    kinetic = np.stack([
        spec.hbar**2 * basis_wavenumbers(spec, B, float(kap)) ** 2 / (2.0 * spec.mass)
        for kap in kappas.reshape(-1)
    ])  # (M, B)
    q, envelope = _fourier_ladder(spec, B)
    idx = (B - 1) + np.arange(B)[:, None] - np.arange(B)[None, :]  # Toeplitz gather

    if spec.v0 == 0.0:
        # free particle: the kinetic ladder is the exact propagator
        U = np.stack([np.diag(np.exp(-1j * kin * spec.period / spec.hbar)) for kin in kinetic])
        return U if kappas.ndim else U[0]
    if spec.amplitude == 0.0:
        # static lattice: exponentiate the full Hamiltonian matrix exactly
        w = _potential_coefficients(spec, q, envelope, [0.0])[0][idx]
        U = np.empty((len(kinetic), B, B), dtype=complex)
        for m, kin in enumerate(kinetic):
            vals, vecs = np.linalg.eigh(np.diag(kin).astype(complex) + w)
            U[m] = (vecs * np.exp(-1j * vals * spec.period / spec.hbar)) @ vecs.conj().T
        return U if kappas.ndim else U[0]

    # ||W|| <= sum_n |c_n| <= n_p * sum(envelope) for the Toeplitz matrix W
    degree = _taylor_degree(spec.sites_per_cell * envelope.sum() * dt / spec.hbar)
    kin_half = np.exp(-1j * kinetic * dt / (2.0 * spec.hbar))
    U = np.stack([np.diag(kh) for kh in kin_half])  # (M, B, B)
    kin_half = kin_half[:, :, None]  # row scalings
    kin_full = kin_half * kin_half
    for start in range(0, n, _SUBSTEP_CHUNK):
        stop = min(start + _SUBSTEP_CHUNK, n)
        times = (np.arange(start, stop) + 0.5) * dt
        coeffs = _potential_coefficients(spec, q, envelope, times)
        x = (coeffs * (-1j * dt / spec.hbar))[:, idx]  # (chunk, B, B) -i W dt / hbar
        # Horner: exp(x) ~ I + x (I + x/2 (I + ... (I + x/m))), shared by every kappa
        exp_w = x * (1.0 / degree)
        exp_w.reshape(stop - start, B * B)[:, :: B + 1] += 1.0
        for j in range(degree - 1, 0, -1):
            exp_w = np.matmul(x, exp_w)
            exp_w *= 1.0 / j
            exp_w.reshape(stop - start, B * B)[:, :: B + 1] += 1.0
        for j in range(stop - start):
            # one (B, B) product per kappa, then that kappa's kinetic row scaling
            U = np.matmul(exp_w[j], U)
            U = (kin_full if start + j < n - 1 else kin_half) * U

    deviation = np.abs(np.matmul(U.conj().transpose(0, 2, 1), U) - np.eye(B)).max()
    if deviation > _UNITARITY_TOL:
        raise UnitarityError(
            f"monodromy unitarity deviation {deviation:.3e} exceeds {_UNITARITY_TOL:.0e}"
        )
    return U if kappas.ndim else U[0]


@dataclass(frozen=True)
class FloquetSpectrum:
    """All monodromy eigenpairs at one quasimomentum, in label order.

    Column ``i`` of ``coefficients`` (plane-wave ladder amplitudes, B x B)
    and of ``samples`` (the mode on the supercell grid, points x B) is the
    mode with quasienergy ``quasienergies[i]``; ``near_degenerate`` holds
    label pairs whose quasienergies nearly coincide.
    """

    spec: LatticeSpec
    kappa: float
    grid: SupercellGrid
    quasienergies: np.ndarray
    coefficients: np.ndarray
    samples: np.ndarray
    near_degenerate: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        # read-only, in C order: products over the columns then round the
        # same way whatever permutation produced them
        for name in ("quasienergies", "coefficients", "samples"):
            array = np.ascontiguousarray(getattr(self, name))
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def basis_size(self) -> int:
        return self.quasienergies.shape[0]

    def overlaps(self, reference: ComplexState) -> np.ndarray:
        """Complex overlaps <mode_i | reference> on the supercell grid."""
        return (self.samples.conj().T @ reference.psi) * self.grid.dx

    def mean_kinetic(self) -> np.ndarray:
        k = basis_wavenumbers(self.spec, self.basis_size, self.kappa)
        energy = self.spec.hbar**2 * k**2 / (2.0 * self.spec.mass)
        return np.abs(self.coefficients.T) ** 2 @ energy

    def uniform_reference(self) -> ComplexState:
        return make_initial_state(UniformState(), self.grid)

    def relabeled(self, order) -> "FloquetSpectrum":
        """The spectrum with mode ``order[i]`` as label ``i``."""
        order = np.asarray(order)
        remap = {int(i): new for new, i in enumerate(order)}
        flags = tuple(
            tuple(sorted((remap[a], remap[b])))
            for a, b in self.near_degenerate
            if a in remap and b in remap
        )
        return replace(
            self,
            quasienergies=self.quasienergies[order],
            coefficients=self.coefficients[:, order],
            samples=self.samples[:, order],
            near_degenerate=flags,
        )


def diagonalize_monodromy(
    U: np.ndarray,
    spec: LatticeSpec,
    kappa: float = 0.0,
    grid: SupercellGrid | None = None,
) -> FloquetSpectrum:
    """Eigenpairs of a monodromy matrix, sampled on a grid.

    Uses a complex Schur decomposition: for a unitary (normal) matrix the
    Schur form is diagonal and the Schur basis is orthonormal to machine
    precision, so the sampled modes form a clean orthonormal set even near
    degeneracies.  Each mode's global phase is fixed by making its
    largest-magnitude sample real positive.
    """
    U = np.asarray(U, dtype=complex)
    B = U.shape[0]
    if U.shape != (B, B):
        raise ValueError("monodromy must be square")
    deviation = np.abs(U.conj().T @ U - np.eye(B)).max()
    if deviation > _UNITARITY_TOL:
        raise UnitarityError(
            f"matrix is not unitary within {_UNITARITY_TOL:.0e} (got {deviation:.3e})"
        )
    grid = grid if grid is not None else SupercellGrid.for_spec(spec)

    T, Q = schur(U, output="complex")
    eigenphases = np.diag(T)
    if np.abs(np.abs(eigenphases) - 1.0).max() > _EIGENPHASE_TOL:
        raise UnitarityError("eigenphases deviate from the unit circle")
    quasi = -(spec.hbar / spec.period) * np.angle(eigenphases)

    order = np.argsort(quasi, kind="stable")
    quasi, Q = quasi[order], Q[:, order]

    k = basis_wavenumbers(spec, B, kappa)
    x = grid.positions()
    plane_waves = np.exp(1j * x[:, None] * k[None, :]) / math.sqrt(spec.cell_length)
    samples = plane_waves @ Q

    peak = np.argmax(np.abs(samples), axis=0)
    gauge = samples[peak, np.arange(B)]
    gauge = gauge / np.abs(gauge)
    norms = np.sqrt(np.sum(np.abs(samples) ** 2, axis=0) * grid.dx)
    samples = samples / (gauge * norms)[None, :]
    Q = Q / (gauge * norms)[None, :]

    tol = _DEGENERACY_REL_TOL * (spec.hbar * spec.omega)
    # adjacent labels, then the pair that wraps around the zone
    close = np.abs(fold_quasienergy(quasi[:-1] - quasi[1:], spec)) < tol
    flags = [(int(i), int(i) + 1) for i in np.flatnonzero(close)]
    if B > 1 and circle_gap(quasi[0], quasi[-1], spec) < tol:
        flags.append((0, B - 1))

    return FloquetSpectrum(
        spec=spec, kappa=kappa, grid=grid, quasienergies=quasi,
        coefficients=Q, samples=samples, near_degenerate=tuple(flags),
    )


def label_by_overlap(spectrum: FloquetSpectrum) -> FloquetSpectrum:
    """Reorder modes by descending squared overlap with the uniform state.

    Index 0 becomes the Floquet ground state.  Overlaps equal within 1e-12
    are tie-broken by ascending quasienergy, then ascending mean kinetic
    energy, so the ordering is deterministic.
    """
    weights = np.abs(spectrum.overlaps(spectrum.uniform_reference())) ** 2
    quantized = np.round(weights / _OVERLAP_TIE_TOL)
    order = np.lexsort((spectrum.mean_kinetic(), spectrum.quasienergies, -quantized))
    return spectrum.relabeled(order)


def labeled_spectrum(
    spec: LatticeSpec,
    kappa: float = 0.0,
    *,
    grid: SupercellGrid | None = None,
    params: PropagationParams | None = None,
    basis_size: int | None = None,
) -> FloquetSpectrum:
    """Build, diagonalize and overlap-label the spectrum at one (spec, kappa)."""
    U = monodromy_matrix(spec, kappa, params=params, basis_size=basis_size)
    return label_by_overlap(diagonalize_monodromy(U, spec, kappa, grid=grid))


def match_band_labels(
    spectra,
) -> tuple[tuple[FloquetSpectrum, ...], tuple[tuple[int, int], ...]]:
    """Relabel a family of spectra so bands continue the kappa = 0 labels.

    Modes at each nonzero quasimomentum are assigned to the labels of the
    reference (smallest |kappa|) spectrum by maximizing the total squared
    overlap of the periodic parts.  Returns the relabeled spectra and a
    tuple of ``(spectrum_index, label)`` flags for assignments whose best
    and runner-up overlaps differ by less than 1e-3.
    """
    spectra = list(spectra)
    ref_idx = int(np.argmin([abs(s.kappa) for s in spectra]))
    ref = spectra[ref_idx]
    basis = ref.basis_size
    out: list[FloquetSpectrum] = []
    flags: list[tuple[int, int]] = []
    for j, spectrum in enumerate(spectra):
        if spectrum.basis_size != basis:
            raise ValueError("band matching requires a common basis size")
        if j == ref_idx:
            out.append(spectrum)
            continue
        overlap = np.abs(ref.coefficients.conj().T @ spectrum.coefficients) ** 2
        row, col = linear_sum_assignment(-overlap)
        order = np.empty(basis, dtype=int)
        order[row] = col
        ranked = np.sort(overlap, axis=1)
        ambiguous = ranked[:, -1] - ranked[:, -2] < _MATCH_AMBIGUITY_TOL
        flags.extend((j, int(label)) for label in np.flatnonzero(ambiguous))
        out.append(spectrum.relabeled(order))
    return tuple(out), tuple(flags)


@dataclass(frozen=True)
class ResonancePrediction:
    """Driving frequency at which the n-fold-folded free energy of band
    `band_index` returns to zero, predicting ground-band mixing."""

    band_index: int
    fold_count: int
    omega: float


def predict_resonances(
    spec: LatticeSpec, alpha_max: int, max_folds: int
) -> tuple[ResonancePrediction, ...]:
    """Resonance frequencies 2 pi^2 hbar a^2 / (m (n_p L)^2 n), sorted ascending."""
    if alpha_max < 1 or max_folds < 1:
        raise ValueError("alpha_max and max_folds must be >= 1")
    scale = 2.0 * math.pi**2 * spec.hbar / (spec.mass * spec.cell_length**2)
    predictions = [
        ResonancePrediction(a, n, scale * a**2 / n)
        for a in range(1, alpha_max + 1)
        for n in range(1, max_folds + 1)
    ]
    predictions.sort(key=lambda p: (p.omega, p.band_index))
    return tuple(predictions)


@dataclass(frozen=True)
class GapMinimum:
    """Refined local minimum of the ground-band gap over frequency."""

    omega: float
    gap: float


def parabolic_vertex(x0: float, x1: float, x2: float, y0: float, y1: float, y2: float) -> float:
    """Vertex abscissa of the parabola through three points, clipped to [x0, x2]."""
    denom = (y0 - 2.0 * y1 + y2)
    if denom == 0:
        return x1
    # uniform-spacing formula is exact for our equispaced scans
    vertex = x1 + 0.5 * (x2 - x1) * (y0 - y2) / denom
    return float(min(max(vertex, x0), x2))


def find_gap_minima(omegas, gaps) -> tuple[GapMinimum, ...]:
    """Three-point local minima of the gap curve with parabolic refinement."""
    omegas = np.asarray(omegas, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    found = []
    for i in range(1, len(gaps) - 1):
        if gaps[i] <= gaps[i - 1] and gaps[i] <= gaps[i + 1] and (
            gaps[i] < gaps[i - 1] or gaps[i] < gaps[i + 1]
        ):
            omega = parabolic_vertex(
                omegas[i - 1], omegas[i], omegas[i + 1],
                gaps[i - 1], gaps[i], gaps[i + 1],
            )
            found.append(GapMinimum(omega=omega, gap=float(gaps[i])))
    return tuple(found)
