"""Split-step spectral integrator for the time-dependent barrier lattice.

`evolve_ring` propagates a state on a periodic ring of supercells (one cell
is the one-cell ring) with an optional Bloch twist kappa, and serves as the
brute-force reference for the mode-decomposition dynamics.  It uses
symmetric (Strang) kinetic-potential-kinetic splitting with the potential
frozen at the temporal midpoint of each substep: exactly unitary per
substep, spectrally accurate in space, second order in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import GridMismatchError
from .lattice import ComplexState, LatticeSpec, RingDomain, _in_first_zone, potential


@dataclass(frozen=True)
class PropagationParams:
    """Time-stepping resolution: substeps per driving period."""

    substeps_per_period: int

    def __post_init__(self):
        if self.substeps_per_period < 256:
            raise ValueError("need at least 256 substeps per period")


def default_params(spec: LatticeSpec) -> PropagationParams:
    """Default resolution, scaled so the absolute substep never exceeds the
    omega = 1 baseline (dimensionless units)."""
    return PropagationParams(
        substeps_per_period=max(2048, int(math.ceil(2048 * spec.omega)))
    )


def _split_step(
    psi: np.ndarray,
    ring: RingDomain,
    kappa: float,
    spec: LatticeSpec,
    params: PropagationParams,
    duration: float,
) -> np.ndarray:
    n = max(1, int(round(params.substeps_per_period * duration / spec.period)))
    dt = duration / n
    x = ring.positions()
    k = 2.0 * math.pi * sfft.fftfreq(ring.points, ring.dx)
    hbar, mass = spec.hbar, spec.mass
    kin_half = np.exp(-1j * hbar * (k + kappa) ** 2 * dt / (4.0 * mass))
    kin_full = kin_half * kin_half
    # the potential repeats every supercell: evaluate it on one cell and
    # broadcast the phase over the (cells, cell points) view of the state
    x_cell = ring.cell.positions()

    u = psi if kappa == 0.0 else psi * np.exp(-1j * kappa * x)
    u = sfft.ifft(sfft.fft(u) * kin_half)
    for j in range(n):
        t_mid = (j + 0.5) * dt
        phase = np.exp(-1j * potential(x_cell, t_mid, spec) * dt / hbar)
        u = (u.reshape(ring.supercells, -1) * phase).reshape(-1)
        u = sfft.ifft(sfft.fft(u) * (kin_full if j < n - 1 else kin_half))
    if kappa != 0.0:
        u = u * np.exp(1j * kappa * x)
    return u


def evolve_ring(
    state: ComplexState,
    spec: LatticeSpec,
    params: PropagationParams,
    duration: float,
    kappa: float = 0.0,
) -> ComplexState:
    """Evolve a state on a periodic ring of supercells over [0, duration].

    A nonzero ``kappa`` imposes the twisted boundary condition
    ``psi(x + length) = exp(i kappa length) psi(x)`` on the ring, handled
    spectrally by shifting the momentum ladder to ``k + kappa``.
    """
    if not _in_first_zone(kappa, spec):
        raise ValueError(
            f"kappa={kappa:.6g} outside the first Brillouin zone "
            f"[-{spec.brillouin_edge:.6g}, {spec.brillouin_edge:.6g}]"
        )
    if state.grid.cell.length != spec.cell_length:
        raise GridMismatchError("ring cell length does not match the lattice supercell")
    if not duration > 0:  # a NaN duration fails too
        raise ValueError("duration must be positive")
    psi = _split_step(state.psi, state.grid, kappa, spec, params, duration)
    return ComplexState(psi, state.grid)
