"""Lattice parameters, spatial grids, state vectors and the driven potential.

The potential is a chain of identical Gaussian barriers, one per spacing
``L``, each oscillating laterally with a common amplitude and frequency but
its own phase.  Phases repeat with period ``n_p`` (sites per cell), so the
potential is periodic over one supercell ``n_p * L`` in space and over one
driving period ``T = 2*pi/omega`` in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError

# Barriers further than this many widths from the evaluation window are
# dropped from the sum (tail below exp(-64)).
_BARRIER_WINDOW_WIDTHS = 8.0
# Largest Gaussian amplitude at the domain seam, relative to its peak.
_SEAM_TOL = 1e-3
# roundoff allowed in a drive-symmetry identity of the phases
_SYMMETRY_TOL = 1e-12
# samples per supercell of a grid, unless given (site edges may fall between them)
DEFAULT_GRID_POINTS = 480


@dataclass(frozen=True)
class LatticeSpec:
    """Physical parameters of the driven Gaussian-barrier lattice.

    Defaults are the dimensionless reference configuration (m = hbar = 1)
    used by the bundled experiment scripts and the test suite.
    """

    v0: float = 1.0              # barrier height
    delta: float = 0.5           # barrier 1/e half-width
    spacing: float = 10.0        # distance between barrier equilibria
    amplitude: float = 1.0       # lateral drive amplitude
    omega: float = 1.0           # drive angular frequency
    phases: tuple[float, ...] = (0.0, math.pi, 0.0)
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        scalars = (self.v0, self.delta, self.spacing, self.amplitude, self.omega,
                   self.mass, self.hbar)
        if not all(map(math.isfinite, scalars + self.phases)):
            raise ValueError("lattice parameters and drive phases must be finite")
        for name in ("delta", "spacing", "omega", "mass", "hbar"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        # v0 = 0 is the free-particle limit used by the spectral baselines
        if self.v0 < 0 or self.amplitude < 0:
            raise ValueError("v0 and amplitude must be >= 0")
        if len(self.phases) < 1:
            raise ValueError("need at least one drive phase per cell")

    @property
    def sites_per_cell(self) -> int:
        return len(self.phases)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def cell_length(self) -> float:
        return self.sites_per_cell * self.spacing

    @property
    def brillouin_edge(self) -> float:
        """Half-width of the first spatial Brillouin zone, pi / (n_p * L)."""
        return math.pi / self.cell_length

    @property
    def static(self) -> bool:
        """Whether the Hamiltonian is time-independent: no barriers or no drive."""
        return self.v0 == 0 or self.amplitude == 0

    def offsets(self, times) -> np.ndarray:
        """Lateral barrier offsets d_s(t) = A cos(omega t + phi_s), one row
        of the n_p sites per time: shape (len(times), n_p)."""
        return self.amplitude * np.cos(
            self.omega * np.asarray(times, dtype=float)[:, None] + np.array(self.phases))

    def drive_symmetries(self) -> tuple[bool, bool]:
        """Whether the drive has (time reversal, the glide), decided from the
        phases, each within roundoff; a drive of amplitude 0 has both.

        Time reversal is d_s(-t) = d_s(t), which holds iff every
        sin(phi_s) = 0.  The glide, the reflection x -> 2L - x half a period
        on, is d_{(2-s) mod n_p}(t + T/2) = -d_s(t), which holds iff
        phi_{(2-s) mod n_p} = phi_s mod 2 pi.
        """
        if self.amplitude == 0:
            return True, True
        phases, n = self.phases, self.sites_per_cell
        time_reversal = all(abs(math.sin(p)) <= _SYMMETRY_TOL for p in phases)
        glide = all(abs(math.remainder(phases[(2 - s) % n] - p, 2 * math.pi)) <= _SYMMETRY_TOL
                    for s, p in enumerate(phases))
        return time_reversal, glide


def _in_first_zone(kappa, spec: LatticeSpec):
    """Whether |kappa| lies in the first Brillouin zone, elementwise, with
    a relative slack of 1e-12 for the roundoff of a folded ladder."""
    return np.abs(kappa) <= spec.brillouin_edge * (1 + 1e-12)


def potential(x, t: float, spec: LatticeSpec) -> np.ndarray:
    """Driven lattice potential V(x, t), vectorized over positions.

    Sums Gaussian barriers centred at ``s*L + d_s(t)``; barriers whose
    equilibrium lies more than 8 widths (plus the drive amplitude) outside
    the evaluation window contribute below 1e-16 of v0 and are skipped.
    """
    x = np.asarray(x, dtype=float)
    xmin = float(x.min()) if x.size else 0.0
    xmax = float(x.max()) if x.size else 0.0
    margin = _BARRIER_WINDOW_WIDTHS * spec.delta + spec.amplitude
    s_lo = int(math.ceil((xmin - margin) / spec.spacing))
    s_hi = int(math.floor((xmax + margin) / spec.spacing))
    offsets = spec.offsets([t])[0]
    total = np.zeros_like(x)
    for s in range(s_lo, s_hi + 1):
        y = (x - s * spec.spacing - offsets[s % spec.sites_per_cell]) / spec.delta
        total += np.exp(-y * y)
    return spec.v0 * total


@dataclass(frozen=True)
class SupercellGrid:
    """Uniform grid of `points` samples covering one supercell [0, length)."""

    length: float
    points: int

    def __post_init__(self):
        if self.length <= 0 or self.points < 1:
            raise ValueError("grid needs positive length and at least one point")

    @property
    def dx(self) -> float:
        return self.length / self.points

    def positions(self) -> np.ndarray:
        return np.arange(self.points) * self.dx

    @classmethod
    def for_spec(cls, spec: LatticeSpec, points: int = DEFAULT_GRID_POINTS) -> "SupercellGrid":
        grid = cls(spec.cell_length, points)
        if grid.dx > spec.delta / 4:
            raise ValueError(
                f"grid spacing {grid.dx:.4g} does not resolve the barrier "
                f"profile (need dx <= delta/4 = {spec.delta / 4:.4g})"
            )
        return grid


@dataclass(frozen=True)
class RingDomain:
    """Periodic chain of `supercells` copies of a supercell grid, the one
    domain a state lives on; a lone supercell is ``RingDomain(cell, 1)``.

    Realizes the extended lattice at finite size; position ``length`` is
    identified with 0.  The ring quantizes the quasimomentum to the ladder
    ``2*pi*j / length`` used by the spectral decomposition.
    """

    cell: SupercellGrid
    supercells: int

    def __post_init__(self):
        if self.supercells < 1:
            raise ValueError("need at least one supercell")

    @property
    def length(self) -> float:
        return self.supercells * self.cell.length

    @property
    def points(self) -> int:
        return self.supercells * self.cell.points

    @property
    def dx(self) -> float:
        return self.cell.dx

    def positions(self) -> np.ndarray:
        return np.arange(self.points) * self.dx


@dataclass(frozen=True)
class ComplexState:
    """Sampled wave function on a ring; amplitudes carry 1/sqrt(length) units.

    The sample array is frozen at construction; evolution operators always
    return fresh states, so instances are safe to share across workers.
    """

    psi: np.ndarray
    grid: RingDomain

    def __post_init__(self):
        if not isinstance(self.grid, RingDomain):
            raise GridMismatchError("a state lives on a ring: RingDomain(cell, 1) for one cell")
        psi = np.asarray(self.psi, dtype=complex)
        if psi.shape != (self.grid.points,):
            raise GridMismatchError(
                f"state has {psi.shape} samples for a {self.grid.points}-point grid"
            )
        psi = psi.copy()
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.dx)

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def normalized(self) -> "ComplexState":
        return ComplexState(self.psi / self.norm(), self.grid)


def inner(a: ComplexState, b: ComplexState) -> complex:
    """Discrete inner product <a|b> = sum conj(a_j) b_j dx (conjugate on a)."""
    if a.grid != b.grid:
        raise GridMismatchError("inner product requires states on the same grid")
    return complex(np.vdot(a.psi, b.psi) * a.grid.dx)


@dataclass(frozen=True)
class GaussianState:
    """Normalized Gaussian (pi sigma^2)^(-1/4) exp(-(x-center)^2 / 2 sigma^2)."""

    center: float
    width: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and 0 < self.width < math.inf):
            raise ValueError("gaussian center must be finite, its width positive and finite")


@dataclass(frozen=True)
class UniformState:
    """Constant amplitude 1/sqrt(domain length)."""


InitialStateSpec = GaussianState | UniformState


def make_initial_state(state_spec: InitialStateSpec, domain: RingDomain) -> ComplexState:
    """Sample and normalize an initial state on `domain`.

    A Gaussian is rejected when it is narrower than the grid spacing, when
    its center lies off the ring [0, length), when its amplitude at the
    domain seam (the point identified with 0 on the ring) exceeds 1e-3 of the
    peak, since the sampled state would carry a visible wrap-around kink, and
    when its width or center overflows or its samples have no finite,
    positive norm.
    """
    x = domain.positions()
    if isinstance(state_spec, UniformState):
        psi = np.full(domain.points, 1.0 / math.sqrt(domain.length), dtype=complex)
        return ComplexState(psi, domain)
    sigma = state_spec.width
    if sigma < domain.dx:
        raise ValueError(f"gaussian width {sigma:.4g} is below the grid spacing {domain.dx:.4g}")
    if not 0.0 <= state_spec.center < domain.length:
        # the seam check below measures against a peak that must lie on the ring
        raise ValueError(f"gaussian center {state_spec.center:.4g} lies off the ring "
                         f"[0, {domain.length:.4g})")
    try:
        scale = (math.pi * sigma**2) ** -0.25
        edge = max(
            math.exp(-(state_spec.center**2) / (2 * sigma**2)),
            math.exp(-((domain.length - state_spec.center) ** 2) / (2 * sigma**2)),
        )
    except ArithmeticError as exc:  # sigma^2 or center^2 overflows
        raise ValueError(f"gaussian (sigma={sigma:.4g}, center={state_spec.center:.4g}) "
                         "is out of range") from exc
    if edge > _SEAM_TOL:
        raise ValueError(
            f"gaussian (sigma={sigma:.4g}, center={state_spec.center:.4g}) has "
            f"relative boundary amplitude {edge:.2e} > {_SEAM_TOL:.1e}; "
            "domain too small"
        )
    psi = scale * np.exp(-((x - state_spec.center) ** 2) / (2.0 * sigma**2))
    state = ComplexState(psi.astype(complex), domain)
    norm = state.norm()
    if not 0.0 < norm < math.inf:
        raise ValueError(f"gaussian (sigma={sigma:.4g}, center={state_spec.center:.4g}) "
                         f"samples to norm {norm:.3g} on the domain")
    return ComplexState(state.psi / norm, domain)
