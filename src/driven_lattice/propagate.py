"""Split-step spectral integrator for the time-dependent barrier lattice.

`evolve_ring` propagates a state on a periodic ring of supercells (one cell
is the one-cell ring) with an optional Bloch twist kappa, and serves as the
brute-force reference for the mode-decomposition dynamics.  It uses
symmetric (Strang) kinetic-potential-kinetic splitting with the potential
frozen at the temporal midpoint of each substep: exactly unitary per
substep, spectrally accurate in space, second order in time.

The steps run in the cell-Bloch frame, the Cooley-Tukey split of the ring
FFT over M cells of P points.  The ring state, viewed as ``(M, P)``, enters
the frame once: its cell-axis FFT times the twiddle
``exp(-2 pi i j p / (M P))``.  Column a of the size-P FFT of row j is then
the ring's wavenumber ``m = j + M a``, so each substep is one batched
size-P FFT pair with the kinetic phase ``kin.reshape(P, M).T`` between the
transforms.  The potential repeats every cell, so its phase is evaluated on
one cell and multiplies every row; a static drive (amplitude 0) evaluates
it once per run.  The state leaves the frame once, at the end.  This is
the full-ring split step up to roundoff, and bitwise it on a one-cell ring.
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
    cells, points = ring.supercells, ring.cell.points
    x = ring.positions()
    k = 2.0 * math.pi * sfft.fftfreq(ring.points, ring.dx)
    hbar, mass = spec.hbar, spec.mass
    # ring wavenumber m = j + M a sits at row j, column a of the frame
    kin_half = np.exp(-1j * hbar * (k + kappa) ** 2 * dt / (4.0 * mass))
    kin_half = np.ascontiguousarray(kin_half.reshape(points, cells).T)
    kin_full = kin_half * kin_half
    twiddle = np.exp(-2j * math.pi * np.outer(np.arange(cells), np.arange(points))
                     / ring.points)
    x_cell = ring.cell.positions()

    def phase(t: float) -> np.ndarray:
        return np.exp(-1j * potential(x_cell, t, spec) * dt / hbar)

    def kinetic(w: np.ndarray, kin: np.ndarray) -> np.ndarray:
        w = sfft.fft(w, axis=1, overwrite_x=True)
        w *= kin
        return sfft.ifft(w, axis=1, overwrite_x=True)

    # without a drive the potential, and so its phase, is the same bits at
    # every midpoint time
    static = phase(0.0) if spec.amplitude == 0 else None
    u = psi if kappa == 0.0 else psi * np.exp(-1j * kappa * x)
    w = kinetic(sfft.fft(u.reshape(cells, points), axis=0) * twiddle, kin_half)
    for j in range(n):
        w *= phase((j + 0.5) * dt) if static is None else static
        w = kinetic(w, kin_full if j < n - 1 else kin_half)
    u = sfft.ifft(w * twiddle.conj(), axis=0).reshape(-1)
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
