"""A fixed reference kernel that gauges how fast the machine runs right now.

On a small shared machine the same code runs up to twice as slow for
stretches of seconds to minutes, on each core independently. Raw wall times
then spread by 30-50% between runs, more than any useful regression bound.
The benchmark therefore runs this kernel just before every timed operation
and reports each operation's time scaled to the nominal speed at which the
kernel takes `NOMINAL_S`:

    scaled = wall * NOMINAL_S / kernel_wall

The kernel mixes the two kinds of work the package does: a Python loop of
small-vector NumPy calls (like the overlap ascent) and one dense Hermitian
eigensolve and product (like state validation). Its inputs are fixed, so it
does the same work in every run, whatever the seed or the package version.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.009  # the kernel's time in a fast phase of a 2-core Xeon at 2.1 GHz

_rng = np.random.default_rng(0)
_VECS = [_rng.normal(size=3) + 1j * _rng.normal(size=3) for _ in range(3)]
_TENSOR = _rng.normal(size=(3, 3, 3)) + 1j * _rng.normal(size=(3, 3, 3))
_G = _rng.normal(size=(150, 150)) + 1j * _rng.normal(size=(150, 150))
_HERM = _G @ _G.conj().T


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    for _ in range(150):
        prod = np.kron(np.kron(_VECS[0], _VECS[1]), _VECS[2])
        part = np.tensordot(_TENSOR, _VECS[0], axes=([0], [0]))
        np.linalg.norm(part)
        np.abs(prod).sum()
    np.linalg.eigvalsh(_HERM)
    _HERM @ _HERM
    return time.perf_counter() - start
