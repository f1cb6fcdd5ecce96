"""Speed of the core a benchmark child runs on, from a fixed kernel.

The measuring host changes speed by up to 1.6 times for spells of seconds to
minutes (other tenants share its cores; see NOTES.md), and a spell can cover
a whole run.  The child times this kernel right after set-up and after every
operation, and the harness scales each time it reports by ``REFERENCE_S``
over the kernel's time measured around it.  The kernel needs numpy only,
never the package under test, so no change to the package can move it.  It
mixes the kinds of work the workloads do: FFTs and complex exponentials as
in the split step, small Hermitian eigendecompositions and products as in
the monodromy, mode-matrix products streaming a few megabytes as in the
reconstruction of populations, and an interpreter loop as in set-up and
the CLI.  Its arrays add up to about 14 MB to a child's peak RSS.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time in the fast spells of the measuring host (2.1 GHz
# Xeon, one thread): the unit of the reported "reference seconds".
REFERENCE_S = 0.13

_RNG = np.random.default_rng(0)
_GRID = _RNG.standard_normal(7680) + 1j * _RNG.standard_normal(7680)
_BLOCK = _RNG.standard_normal((53, 53)) + 1j * _RNG.standard_normal((53, 53))
_HERMITIAN = _BLOCK + _BLOCK.conj().T
_MODES = _RNG.standard_normal((2048, 61)) + 1j * _RNG.standard_normal((2048, 61))
_AMPLITUDES = _RNG.standard_normal((61, 128)) + 1j * _RNG.standard_normal((61, 128))


def kernel_s() -> float:
    """Wall time of one pass of the fixed kernel."""
    start = time.perf_counter()
    for _ in range(100):
        np.fft.ifft(np.exp(-0.1j * _GRID.real) * np.fft.fft(_GRID))
    for _ in range(40):
        values, vectors = np.linalg.eigh(_HERMITIAN)
        (vectors * np.exp(-1j * values)) @ vectors.conj().T
    states = np.zeros((_MODES.shape[0], _AMPLITUDES.shape[1]), dtype=complex)
    for _ in range(8):
        states += (_MODES * np.exp(-1j * _MODES.real)) @ _AMPLITUDES
    np.abs(states) ** 2
    total = 0
    for i in range(14000):
        total += i * i
    return time.perf_counter() - start
