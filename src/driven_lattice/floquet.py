"""One-period propagator (monodromy) construction and Floquet-Bloch spectra.

The monodromy is integrated directly in a truncated plane-wave basis
``exp(i (2 pi a / (n_p L) + kappa) x)``, |a| <= (B-1)/2, with the potential
represented by its exact Fourier-coefficient (Toeplitz) matrix.  A time step
h is ``S(w_1 h) ... S(w_r h)`` over the r weights of ``_WEIGHTS`` (summing to
one) of the midpoint Strang substep S the grid propagators use (2nd order),
kinetic halves of adjacent substeps merged; Yoshida's triple jump makes it
4th order.  An explicit ``substeps_per_period = n`` means n potential factors
in ceil(n/r) steps; unset, the step count follows omega and the basis's
kinetic edge (`_monodromy_resolution`); either is rounded up to a multiple
of 4 steps on the quarter and half routes below.

Each potential factor ``exp(-i W tau / hbar)`` is its Taylor polynomial, of
the smallest degree whose remainder bound ``theta^(m+1) / (m+1)!`` (theta
bounds ``||W|| |tau| / hbar``) is below roundoff, evaluated in
Paterson-Stockmeyer form; when theta reaches 1 the polynomial of
``x / 2^k`` is squared k times instead.  Every factor is thus unitary on
the truncated space to roundoff and the product is unitary regardless of
basis size; basis adequacy is checked separately through the kinetic-energy
cutoff and the grid-propagator consistency tests.  The time-independent
Hamiltonian of a static lattice (`LatticeSpec.static`: undriven, or a free
particle with v0 = 0) is exponentiated exactly instead: the exact route.

The potential matrix ``W_ba = c_{b-a}(t)`` does not depend on kappa; only
the kinetic diagonal does.  A whole kappa ladder therefore shares one stack
of potential factors: ``monodromy_matrix`` given M kappas evaluates each
chunk of Taylor factors once and advances every kappa's propagator with its
own ``(B, B)`` product, so each slice is bitwise the one-kappa result.

The loop runs a fraction of the period chosen by the drive's symmetries,
which `LatticeSpec.drive_symmetries` decides from the drive phases to
roundoff (the direct integrator reads it too), never assuming them.  Time
reversal is H(-t) = H(t), every sin(phi_s) = 0; the glide is
H(t + T/2) = R H(t) R^-1 for the reflection R: x -> 2L - x, every
phi_{(2-s) mod n_p} = phi_s mod 2 pi.  The reference phases (0, pi, 0)
have both, and take the quarter route: the loop gives Q_k = U_k(T/4, 0)
for every kappa and its -kappa, and with P the plane-wave index reversal
and R_k the reflection from kappa to -kappa,
``Uh_k = R_{-k} P Q_k^T P R_k Q_k`` and ``U_k = R_{-k} Uh_{-k} R_k Uh_k``.
With the glide alone the half route runs Uh_k = U_k(T/2, 0) and assembles
``U_k = R_{-k} Uh_{-k} R_k Uh_k``; without the glide (time reversal alone
included) the full route runs the whole period.  The quarter and half
routes run the step count rounded up to a multiple of 4, so their fraction
ends between steps; the assembled period matches the full-period loop at
that count to roundoff.
Modes are labeled by their weight on the uniform state (`uniform_weights`).

The monodromy loop, Schur, band matching and the complex products with the
sampled modes (here and in `dynamics`) run on one BLAS thread
(`_one_blas_thread`), whatever the caller's setting, so their last bits do
not depend on it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
from scipy.linalg import schur
from scipy.linalg.blas import zaxpy

from .errors import ConfigError, UnitarityError
from .lattice import LatticeSpec, RingDomain, SupercellGrid, UniformState, make_initial_state
from .lattice import _in_first_zone
from .propagate import PropagationParams

_UNITARITY_TOL = 1e-8
_EIGENPHASE_TOL = 1e-8
_DEGENERACY_REL_TOL = 1e-10
_OVERLAP_TIE_TOL = 1e-12
_MATCH_AMBIGUITY_TOL = 1e-3
# bytes of one (chunk, B, B) stack of potential factors
_CHUNK_BYTES = 4 << 20
_MIN_BASIS_SIZE = 41
# a basis is adequate when its edge kinetic energy reaches this multiple of
# the lattice's energy scale max(v0, hbar*omega)
_CUTOFF_FACTOR = 5.0

# One step h of the monodromy is S(w h) for each weight w in turn, S the
# time-symmetric 2nd-order substep.  Yoshida's triple jump (w1, 1 - 2 w1, w1),
# w1 = 1 / (2 - 2^(1/3)), is 4th order (Phys. Lett. A 150, 262, 1990).
_WEIGHTS = (1.3512071919596578, -1.7024143839193155, 1.3512071919596578)
# default composition steps per period (`_default_steps`)
_MIN_STEPS = 200
_STEPS_PER_OMEGA = 100.0
_STEPS_PER_EDGE_PHASE = 0.6

# The eigenvalue accuracy of a truncated-basis monodromy degrades near the
# basis edge; reports keep only this many best-converged modes.
REPORTED_MODES = 20


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) of the thread count of each OpenBLAS that numpy and scipy
    bundle (``numpy.libs``, ``scipy.libs``), found by their exported names;
    empty where there is none."""
    controls = []
    for package in (np, scipy):
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:  # not loadable here: nothing to set
                continue
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get and set_:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
                    break
    return tuple(controls)


class _OneBlasThread(contextlib.ContextDecorator):
    """Run with one BLAS thread, restoring the caller's counts after.

    The library's products, (B, B) in the monodromy, Schur and band
    matching and (P, B) against the sampled modes, are too small for a
    second thread, whose waiting costs more than it gives, and one thread
    makes their last bits independent of the caller's setting.  Where no
    OpenBLAS setter is found nothing changes.  The count is the process's,
    so the first of overlapping entries, from any thread, saves it and the
    last exit restores it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._counts: list[int] = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                controls = _blas_thread_controls()
                self._counts = [get() for get, _ in controls]
                for _, set_ in controls:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, set_), count in zip(_blas_thread_controls(), self._counts):
                    set_(count)
        return False


_one_blas_thread = _OneBlasThread()


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
    centers = np.arange(spec.sites_per_cell) * spec.spacing + spec.offsets(times)  # (nt, n_p)
    # sites on the middle axis, so the sum adds whole rows site by site (faster)
    phase = np.exp(-1j * centers[:, :, None] * q[None, None, :]).sum(axis=1)
    return envelope[None, :] * phase  # (nt, 2B-1)


def _taylor_degree(theta: float) -> int:
    """Smallest degree m >= 1 with theta^(m+1) / (m+1)! below 2^-53.

    For Hermitian W and theta >= ||W|| |tau| / hbar this bounds the 2-norm
    of the Taylor remainder of exp(-i W tau / hbar), because the integral
    form of the remainder carries the unitary factor exp(-i s W tau / hbar).
    """
    m, remainder = 1, theta * theta / 2.0
    while remainder >= 2.0**-53:
        m += 1
        remainder *= theta / (m + 1)
    return m


def _block_size(degree: int) -> int:
    """Paterson-Stockmeyer block size s for a Taylor polynomial of `degree`:
    the one with the fewest stacked products, s - 1 + degree // s (one fewer
    when s divides the degree), and of those the smallest, which has the
    fewest block sums.  Degree 8 takes 4 products instead of Horner's 7."""
    return min(range(1, degree + 1),
               key=lambda s: (s - 1 + degree // s - (degree % s == 0), s))


def _taylor_exp(x: np.ndarray, degree: int, squarings: int, work: np.ndarray) -> np.ndarray:
    """exp of every matrix in a stack: its Taylor polynomial of `degree` in
    Paterson-Stockmeyer form, squared `squarings` times.

    With the powers x^2 .. x^s the polynomial is Horner's rule in x^s over
    blocks of s terms.  ``work`` holds s + 1 stacks at least as long as x
    for the powers and the result, which is a view into it, so a loop over
    chunks allocates nothing per chunk.
    """
    s, n = _block_size(degree), len(x)
    powers = [None, x] + [work[i, :n] for i in range(s - 1)]
    for i in range(2, s + 1):
        np.matmul(powers[i - 1], x, out=powers[i])
    acc, spare = work[s - 1, :n], work[s, :n]
    coef = [1.0 / math.factorial(k) for k in range(degree + 1)]

    def add_block(j):
        # acc += sum over i < s of coef[j s + i] x^i, up to the degree
        for i in range(1, min(s, degree - j * s + 1)):
            zaxpy(powers[i].reshape(-1), acc.reshape(-1), a=coef[j * s + i])
        acc.reshape(n, -1)[:, :: acc.shape[-1] + 1] += coef[j * s]

    top, rest = divmod(degree, s)
    if rest:
        acc[...] = 0.0
    else:  # the top block is a multiple of I: its product with x^s is a scaling
        top -= 1
        np.multiply(powers[s], coef[degree], out=acc)
    add_block(top)
    for j in range(top - 1, -1, -1):
        np.matmul(powers[s], acc, out=spare)
        acc, spare = spare, acc
        add_block(j)
    for _ in range(squarings):
        np.matmul(acc, acc, out=spare)
        acc, spare = spare, acc
    return acc


def _edge_kinetic(spec: LatticeSpec, basis_size: int) -> float:
    """Kinetic energy of the outermost plane wave of a basis at kappa = 0."""
    k_edge = 2.0 * math.pi * ((basis_size - 1) // 2) / spec.cell_length
    return spec.hbar**2 * k_edge**2 / (2.0 * spec.mass)


def _default_steps(spec: LatticeSpec, basis_size: int) -> int:
    """Composition steps per period when no resolution is given.

    A floor, plus a share for the drive (omega) and one for the kinetic
    phase the basis's edge plane wave gathers in a period, whose commutator
    with the potential dominates the splitting error on large bases.  The
    constants make max |U - U_ref| no larger than that of the 2nd-order
    Strang default (2048 max(1, omega) substeps) at omega = 1, 2.4, 2.74,
    2.8 and 3.2 on default bases and at omega = 1 on B = 131.
    """
    edge_phase = _edge_kinetic(spec, basis_size) * spec.period / spec.hbar
    return max(_MIN_STEPS,
               math.ceil(_STEPS_PER_OMEGA * spec.omega + _STEPS_PER_EDGE_PHASE * edge_phase))


class _Resolution(NamedTuple):
    """What a run used, the record behind every sidecar ``numerics`` entry.
    The route alone tells `monodromy_matrix` what to run; a direct trace
    has no basis or route, the exact route no substeps."""

    omega: float
    substeps: int | None
    basis_size: int | None
    route: str | None


# the number of pieces each route assembles the period from (exact: one eigh)
_PIECES = {"exact": 1, "full": 1, "half": 2, "quarter": 4}


def _midpoint_times(spec: LatticeSpec, steps: int, weights: tuple) -> np.ndarray:
    """Midpoint time of every substep of `steps` steps of `weights` over [0, T]."""
    weights, h = np.array(weights), spec.period / steps
    return ((np.arange(steps)[:, None] + (np.cumsum(weights) - weights / 2)) * h).reshape(-1)


def _monodromy_resolution(
    spec: LatticeSpec,
    params: PropagationParams | None = None,
    basis_size: int | None = None,
) -> _Resolution:
    """The omega, substeps, basis size and route that `monodromy_matrix` runs.

    A static lattice takes the exact route, with no substeps.  Otherwise
    steps have one substep per weight: ceil(n / len(_WEIGHTS)) of them for
    an explicit n, the basis-aware default rule otherwise.  A drive with
    the glide (`LatticeSpec.drive_symmetries`, decided from the phases)
    runs the quarter route when it also has time reversal and the weights
    are palindromic, so that the factor at T - t mirrors the one at t, and
    the half route otherwise, both at the step count rounded up to a
    multiple of 4 so that the quarter and half periods end between steps;
    any other drive runs the full period unrounded.
    """
    B = basis_size if basis_size is not None else default_basis_size(spec)
    if B % 2 == 0 or B < 1:
        raise ConfigError("basis_size must be odd and positive")
    if spec.static:
        return _Resolution(float(spec.omega), None, B, "exact")
    if params is not None:
        steps = math.ceil(params.substeps_per_period / len(_WEIGHTS))
    else:
        steps = _default_steps(spec, B)
    stages = len(_WEIGHTS)
    time_reversal, glide = spec.drive_symmetries()
    if not glide:
        return _Resolution(float(spec.omega), stages * steps, B, "full")
    route = "quarter" if time_reversal and _WEIGHTS == _WEIGHTS[::-1] else "half"
    return _Resolution(float(spec.omega), stages * 4 * -(-steps // 4), B, route)


def _kappa_stack(kappas: list[float], paired: bool) -> list[float]:
    """The kappas the loop runs: each distinct requested kappa, then, when
    the route pairs them, every -kappa not among those (of a `ring_kappas`
    ladder only the zone edge of an even ring)."""
    partners = [-k for k in kappas] if paired else []
    return list(dict.fromkeys(kappas + partners))  # 0.0 and -0.0 are one key


@_one_blas_thread
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
    factors they share.  ``params`` gives the potential substeps per period
    (rounded up to whole steps of the composition, and to a multiple of 4
    steps on the quarter and half routes); None picks them from omega and
    the basis's kinetic edge (`_monodromy_resolution`).
    """
    resolution = _monodromy_resolution(spec, params, basis_size)
    B, exact = resolution.basis_size, resolution.route == "exact"
    kappas = np.asarray(kappa, dtype=float)
    if kappas.ndim > 1 or kappas.size == 0:
        raise ConfigError("kappa must be a number or a non-empty 1-D array")
    if not np.all(_in_first_zone(kappas, spec)):
        raise ConfigError("kappa outside the first Brillouin zone")
    # an undriven lattice absorbs no drive quanta, so only v0 sets the scale
    demand = _CUTOFF_FACTOR * max(spec.v0, 0.0 if exact else spec.hbar * spec.omega)
    edge_kinetic = _edge_kinetic(spec, B)
    if spec.v0 > 0 and edge_kinetic < demand:
        raise ConfigError(
            f"basis_size={B} puts the kinetic cutoff {edge_kinetic:.3g} below "
            f"{_CUTOFF_FACTOR:g}*max(v0, hbar*omega); enlarge the basis"
        )

    # the loop runs the stack `run`; `wanted` indexes the requested kappas
    requested = [float(k) for k in kappas.reshape(-1)]
    pieces = _PIECES[resolution.route]
    run = _kappa_stack(requested, paired=pieces > 1)
    index = {k: i for i, k in enumerate(run)}
    wanted = [index[k] for k in requested]
    # one kinetic ladder per kappa, each built exactly as for a lone kappa
    wavenumbers = np.stack([basis_wavenumbers(spec, B, k) for k in run])  # (M, B)
    kinetic = spec.hbar**2 * wavenumbers**2 / (2.0 * spec.mass)
    q, envelope = _fourier_ladder(spec, B)
    idx = (B - 1) + np.arange(B)[:, None] - np.arange(B)[None, :]  # Toeplitz gather

    if exact:
        # static lattice (a free particle when v0 = 0 and W vanishes):
        # exponentiate the full Hamiltonian matrix exactly
        w = _potential_coefficients(spec, q, envelope, [0.0])[0][idx]
        U = np.empty((len(kinetic), B, B), dtype=complex)
        for m, kin in enumerate(kinetic):
            vals, vecs = np.linalg.eigh(np.diag(kin).astype(complex) + w)
            U[m] = (vecs * np.exp(-1j * vals * spec.period / spec.hbar)) @ vecs.conj().T
        U = U[wanted]
        return U if kappas.ndim else U[0]

    # Step h: a substep of w h per weight, each potential factor at its own
    # midpoint time; the kinetic halves between two substeps merge into one
    # row scaling, and two steps meet in the last half times the first.
    # The loop runs the first 1/pieces of the period, whole steps from 0,
    # its first and last kinetic halves unmerged.
    weights, stages = np.array(_WEIGHTS), len(_WEIGHTS)
    steps = resolution.substeps // stages
    h = spec.period / steps
    factors = resolution.substeps // pieces
    taus = np.tile(weights * h, steps)
    times = _midpoint_times(spec, steps, _WEIGHTS)
    halves = [weights[0], *(weights[:-1] + weights[1:]), weights[-1]]  # first, merged, last
    kin = [np.exp(-1j * kinetic * (w * h / 2) / spec.hbar)[:, :, None] for w in halves]
    kin_after = kin[1:-1] + [kin[-1] * kin[0]]  # by position in the step

    # ||W|| <= sum_n |c_n| <= n_p * sum(envelope) for the Toeplitz matrix W;
    # scaling by 2^squarings keeps theta below 1 and so the degree small
    theta = spec.sites_per_cell * envelope.sum() * np.abs(weights).max() * h / spec.hbar
    squarings = max(0, math.frexp(theta)[1])
    degree = _taylor_degree(theta / 2**squarings)
    chunk = max(1, _CHUNK_BYTES // (16 * B * B))
    # x and the Taylor work space, reused by every chunk
    work = np.empty((_block_size(degree) + 2, min(chunk, factors), B, B), dtype=complex)
    U = np.stack([np.diag(kh) for kh in kin[0][:, :, 0]])  # (M, B, B)
    for start in range(0, factors, chunk):
        stop = min(start + chunk, factors)
        coeffs = _potential_coefficients(spec, q, envelope, times[start:stop])
        scale = (-1j / (spec.hbar * 2**squarings)) * taus[start:stop, None]
        # x = -i W tau / (hbar 2^squarings), shared by every kappa; "clip"
        # (the indices are in range) lets take write straight into `work`
        x = np.take(coeffs * scale, idx, axis=1, out=work[0, : stop - start], mode="clip")
        exp_w = _taylor_exp(x, degree, squarings, work[1:])
        for j in range(stop - start):
            # one (B, B) product per kappa, then that kappa's kinetic row scaling
            U = np.matmul(exp_w[j], U)
            U = (kin_after[(start + j) % stages] if start + j < factors - 1 else kin[-1]) * U

    if pieces > 1:
        # P reverses the plane-wave index; the reflection R_k takes index a
        # at kappa to -a at -kappa with phase exp(2i k_a L), so P R_k = D_k
        # and R_{-k} P = D_k^* for D_k = diag(exp(2i k_a L)).
        mirror = np.exp(2j * spec.spacing * wavenumbers)[:, None, :]  # X D_k = X * mirror
        if pieces == 4:
            # Q_k = U_k(T/4, 0) to Uh_k = U_k(T/2, 0) = R_{-k} P Q_k^T P R_k Q_k
            # = D_k^* Q_k^T D_k Q_k
            U = mirror.conj().transpose(0, 2, 1) * np.matmul(U.transpose(0, 2, 1) * mirror, U)
        # the glide takes Uh_k to the period: U_k = R_{-k} Uh_{-k} R_k Uh_k
        # = D_k^* P Uh_{-k} P D_k Uh_k
        partner = U[[index[-k] for k in requested]]
        flipped = partner[:, ::-1, ::-1] * mirror[wanted]
        U = mirror[wanted].conj().transpose(0, 2, 1) * np.matmul(flipped, U[wanted])
    else:
        U = U[wanted]

    deviation = np.abs(np.matmul(U.conj().transpose(0, 2, 1), U) - np.eye(B)).max()
    if not deviation <= _UNITARITY_TOL:
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
    label pairs whose quasienergies nearly coincide.  ``numerics`` is the
    resolution of the monodromy (omega, substeps, basis size, route) when
    this package built it, None for a monodromy from outside.
    """

    spec: LatticeSpec
    kappa: float
    grid: SupercellGrid
    quasienergies: np.ndarray
    coefficients: np.ndarray
    samples: np.ndarray
    near_degenerate: tuple[tuple[int, int], ...] = ()
    numerics: dict | None = None

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

    @_one_blas_thread
    def uniform_weights(self) -> np.ndarray:
        """Squared overlaps |<mode_i | uniform>|^2 with the uniform state."""
        uniform = make_initial_state(UniformState(), RingDomain(self.grid, 1))
        return np.abs((self.samples.conj().T @ uniform.psi) * self.grid.dx) ** 2

    def mean_kinetic(self) -> np.ndarray:
        k = basis_wavenumbers(self.spec, self.basis_size, self.kappa)
        energy = self.spec.hbar**2 * k**2 / (2.0 * self.spec.mass)
        return np.abs(self.coefficients.T) ** 2 @ energy

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


@_one_blas_thread
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
    if not deviation <= _UNITARITY_TOL:  # not `>`: a NaN deviation must fail too
        raise UnitarityError(
            f"matrix is not unitary within {_UNITARITY_TOL:.0e} (got {deviation:.3e})"
        )
    grid = grid if grid is not None else SupercellGrid.for_spec(spec)

    T, Q = schur(U, output="complex")
    eigenphases = np.diag(T)
    if not np.abs(np.abs(eigenphases) - 1.0).max() <= _EIGENPHASE_TOL:
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
    weights = spectrum.uniform_weights()
    quantized = np.round(weights / _OVERLAP_TIE_TOL)
    order = np.lexsort((spectrum.mean_kinetic(), spectrum.quasienergies, -quantized))
    return spectrum.relabeled(order)


def _labeled_spectra(spec: LatticeSpec, kappas: list, grid: SupercellGrid | None,
                     params: PropagationParams | None, basis_size: int | None):
    """The one path to labeled spectra: (spectra, band-matching flags) at
    ``kappas``, a list led by its smallest |kappa|, from one monodromy call.
    The first is labeled by uniform overlap, `match_band_labels` carries its
    labels to the rest, and each records the resolution it was built at."""
    monodromies = monodromy_matrix(spec, kappas, params=params, basis_size=basis_size)
    numerics = _monodromy_resolution(spec, params, basis_size)._asdict()
    spectra = [replace(diagonalize_monodromy(U, spec, kappa, grid=grid), numerics=numerics)
               for U, kappa in zip(monodromies, kappas)]
    spectra[0] = label_by_overlap(spectra[0])
    return match_band_labels(spectra)


def labeled_spectrum(
    spec: LatticeSpec,
    kappa: float = 0.0,
    *,
    grid: SupercellGrid | None = None,
    params: PropagationParams | None = None,
    basis_size: int | None = None,
) -> FloquetSpectrum:
    """Build, diagonalize and overlap-label the spectrum at one (spec, kappa)."""
    return _labeled_spectra(spec, [kappa], grid, params, basis_size)[0][0]


@_one_blas_thread
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
        # imported only here, so that a lone spectrum never loads it (slow, large)
        from scipy.optimize import linear_sum_assignment
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
        raise ConfigError("alpha_max and max_folds must be >= 1")
    scale = 2.0 * math.pi**2 * spec.hbar / (spec.mass * spec.cell_length**2)
    predictions = [
        ResonancePrediction(a, n, scale * a**2 / n)
        for a in range(1, alpha_max + 1)
        for n in range(1, max_folds + 1)
    ]
    predictions.sort(key=lambda p: (p.omega, p.band_index))
    return tuple(predictions)
