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
one cell and multiplies every row.  This is the full-ring split step up to
roundoff, and bitwise it on a one-cell ring where every substep evaluates
its own phase (below).

One call is one pass over the whole duration, the kinetic tables and
twiddle built once.  When the duration is whole periods, the state is
handed out at the end of each (`_split_step` is a generator; the
stroboscopic direct trace reads every period, `evolve_ring` the last): a
copy leaves the frame, and the pass goes on inside it.  The potential
phases are then those of one period, and when the drive has time reversal
(`LatticeSpec.drive_symmetries`, decided from the drive phases) the
substeps j and n - 1 - j of an n-substep period see the same potential,
since their midpoint times add up to T.  Their phase is built once per
call, in a table of the first ceil(n/2) substeps that serves both.
Without time reversal, and over a duration that is not whole periods,
every substep evaluates its own phase; a static lattice
(`LatticeSpec.static`: v0 = 0 or amplitude 0) has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .lattice import (_MAX_POINTS, ComplexState, LatticeSpec, _check_cell, _check_first_zone,
                      potential)


@dataclass(frozen=True)
class PropagationParams:
    """Time-stepping resolution: substeps per driving period."""

    substeps_per_period: int

    def __post_init__(self):
        if self.substeps_per_period < 256:
            raise ConfigError("need at least 256 substeps per period")
        if self.substeps_per_period > _MAX_POINTS:
            raise ConfigError(f"{self.substeps_per_period} substeps per period cannot be allocated")


def default_params(spec: LatticeSpec) -> PropagationParams:
    """Default resolution, scaled so the absolute substep never exceeds the
    omega = 1 baseline (dimensionless units)."""
    substeps = 2048 * spec.omega
    if not math.isfinite(substeps):
        raise ConfigError("the default substep count 2048*omega overflows a float")
    return PropagationParams(substeps_per_period=max(2048, math.ceil(substeps)))


def _split_step(
    state: ComplexState,
    spec: LatticeSpec,
    params: PropagationParams,
    duration: float,
    kappa: float = 0.0,
):
    """Ring samples after each whole period of `duration`, its end last; a
    duration that is not whole periods yields its end only.  The arguments
    are checked when the generator is first advanced."""
    _check_first_zone(kappa, spec)
    _check_cell(state.grid.cell, spec)
    if not 0 < duration < math.inf:  # a NaN duration fails too
        raise ConfigError("duration must be positive and finite")
    ring = state.grid
    n = max(1, int(round(params.substeps_per_period * duration / spec.period)))
    dt = duration / n
    periods = round(duration / spec.period)
    whole = (periods >= 1 and n % periods == 0
             and math.isclose(duration, periods * spec.period, rel_tol=1e-12))
    stride = n // periods if whole else n  # substeps between yields
    cells, points = ring.supercells, ring.cell.points
    x = ring.positions()
    k = 2.0 * math.pi * np.fft.fftfreq(ring.points, ring.dx)
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

    def leave(w: np.ndarray) -> np.ndarray:
        u = np.fft.ifft(w * twiddle.conj(), axis=0).reshape(-1)
        return u if kappa == 0.0 else u * np.exp(1j * kappa * x)

    # a static lattice has one phase; with time reversal the substeps j and
    # stride - 1 - j of every period see the same potential, so row j of a
    # half-period table serves both
    if spec.static:
        table, rows = phase(0.0)[None], np.zeros(stride, dtype=int)
    elif whole and spec.drive_symmetries()[0]:
        rows = np.minimum(np.arange(stride), np.arange(stride)[::-1])
        table = np.empty((rows.max() + 1, points), dtype=complex)
        for j in range(len(table)):
            table[j] = phase((j + 0.5) * dt)
    else:
        table = None
    u = state.psi if kappa == 0.0 else state.psi * np.exp(-1j * kappa * x)
    w = np.fft.fft(u.reshape(cells, points), axis=0) * twiddle
    np.fft.fft(w, axis=1, out=w)
    w *= kin_half
    np.fft.ifft(w, axis=1, out=w)
    for j in range(n):
        w *= phase((j + 0.5) * dt) if table is None else table[rows[j % stride]]
        np.fft.fft(w, axis=1, out=w)
        if (j + 1) % stride == 0:
            yield leave(np.fft.ifft(w * kin_half, axis=1))
        if j < n - 1:
            w *= kin_full
            np.fft.ifft(w, axis=1, out=w)


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
    for psi in _split_step(state, spec, params, duration, kappa):
        pass
    return ComplexState(psi, state.grid)
