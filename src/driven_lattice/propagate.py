"""Split-step spectral integrators for the time-dependent barrier lattice.

Both integrators use symmetric (Strang) kinetic-potential-kinetic splitting
with the potential frozen at the temporal midpoint of each substep: exactly
unitary per substep, spectrally accurate in space, second order in time.

`evolve_twisted` propagates on a single supercell with a Bloch twist kappa
(momentum ladder k + kappa); `evolve_ring` propagates directly on a periodic
multi-supercell ring and serves as the brute-force reference for the
mode-decomposition dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import GridMismatchError
from .lattice import ComplexState, Domain, LatticeSpec, RingDomain, SupercellGrid, potential


@dataclass(frozen=True)
class PropagationParams:
    """Time-stepping resolution: substeps per driving period and start time."""

    substeps_per_period: int = 2048
    start_time: float = 0.0

    def __post_init__(self):
        if self.substeps_per_period < 256:
            raise ValueError("need at least 256 substeps per period")


def default_params(spec: LatticeSpec) -> PropagationParams:
    """Default resolution, scaled so the absolute substep never exceeds the
    omega = 1 baseline (dimensionless units)."""
    return PropagationParams(
        substeps_per_period=max(2048, int(math.ceil(2048 * spec.omega)))
    )


def potential_on_grid(grid: Domain, t: float, spec: LatticeSpec) -> np.ndarray:
    """Potential sampled on a grid; ring grids reuse one supercell by tiling."""
    if isinstance(grid, RingDomain):
        cell_values = potential(grid.cell.positions(), t, spec)
        return np.tile(cell_values, grid.supercells)
    return potential(grid.positions(), t, spec)


def _substep_count(params: PropagationParams, period: float, duration: float) -> int:
    return max(1, int(round(params.substeps_per_period * duration / period)))


def _split_step(
    psi: np.ndarray,
    grid: Domain,
    kappa: float,
    spec: LatticeSpec,
    params: PropagationParams,
    duration: float,
    t_start: float,
) -> np.ndarray:
    n = _substep_count(params, spec.period, duration)
    dt = duration / n
    x = grid.positions()
    k = 2.0 * math.pi * sfft.fftfreq(grid.points, grid.dx)
    hbar, mass = spec.hbar, spec.mass
    kin_half = np.exp(-1j * hbar * (k + kappa) ** 2 * dt / (4.0 * mass))
    kin_full = kin_half * kin_half
    # the potential repeats every supercell: evaluate it on one cell and
    # broadcast the phase over the (cells, cell points) view of the state
    cell = grid.cell if isinstance(grid, RingDomain) else grid
    x_cell = cell.positions()
    cells = grid.points // cell.points

    u = psi if kappa == 0.0 else psi * np.exp(-1j * kappa * x)
    u = sfft.ifft(sfft.fft(u) * kin_half)
    for j in range(n):
        t_mid = t_start + (j + 0.5) * dt
        phase = np.exp(-1j * potential(x_cell, t_mid, spec) * dt / hbar)
        u = (u.reshape(cells, -1) * phase).reshape(-1)
        u = sfft.ifft(sfft.fft(u) * (kin_full if j < n - 1 else kin_half))
    if kappa != 0.0:
        u = u * np.exp(1j * kappa * x)
    return u


def _evolve(state, cell, kappa, spec, params, duration, t_start, length_error):
    """Checks shared by both integrators, then the split step on `state`."""
    if cell.length != spec.cell_length:
        raise GridMismatchError(length_error)
    if duration <= 0:
        raise ValueError("duration must be positive")
    t0 = params.start_time if t_start is None else t_start
    psi = _split_step(state.psi, state.grid, kappa, spec, params, duration, t0)
    return ComplexState(psi, state.grid)


def evolve_twisted(
    state: ComplexState,
    kappa: float,
    spec: LatticeSpec,
    params: PropagationParams,
    duration: float,
    t_start: float | None = None,
) -> ComplexState:
    """Evolve a supercell state under the driven Hamiltonian at twist kappa.

    The state is interpreted with twisted boundary conditions
    ``psi(x + n_p L) = exp(i kappa n_p L) psi(x)``, handled spectrally by
    shifting the momentum ladder to ``k + kappa``.
    """
    if not isinstance(state.grid, SupercellGrid):
        raise GridMismatchError("evolve_twisted expects a state on a supercell grid")
    if abs(kappa) > spec.brillouin_edge * (1 + 1e-12):
        raise ValueError(
            f"kappa={kappa:.6g} outside the first Brillouin zone "
            f"[-{spec.brillouin_edge:.6g}, {spec.brillouin_edge:.6g}]"
        )
    return _evolve(state, state.grid, kappa, spec, params, duration, t_start,
                   "grid length does not match the lattice supercell")


def evolve_ring(
    state: ComplexState,
    spec: LatticeSpec,
    params: PropagationParams,
    duration: float,
    t_start: float | None = None,
) -> ComplexState:
    """Evolve a state on a periodic multi-supercell ring (zero net twist)."""
    if not isinstance(state.grid, RingDomain):
        raise GridMismatchError("evolve_ring expects a state on a ring domain")
    return _evolve(state, state.grid.cell, 0.0, spec, params, duration, t_start,
                   "ring cell length does not match the lattice supercell")
