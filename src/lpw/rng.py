"""Deterministic counter-based random fields.

The generator is splitmix64 applied to (seed + counter).  Because every drawn
value depends only on its flat counter index, fields are reproducible
byte-for-byte regardless of chunking, platform, or language: any
implementation of splitmix64 indexed the same way gives identical fields.

Layout convention for a field draw on a grid with ``ncomp`` components and
``M = N**dim`` lattice sites (row-major / C order over the spatial axes):

    counter(c, flat_site) = c * M + flat_site
    re = 2*u64_to_unit(mix(seed, 2*counter))     - 1
    im = 2*u64_to_unit(mix(seed, 2*counter + 1)) - 1

where ``mix(seed, k) = splitmix64(seed + k)`` and ``u64_to_unit(x) =
(x >> 11) * 2**-53`` (uniform in [0, 1)).
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def splitmix64(x):
    """splitmix64 finalizer on uint64 input (scalar or array)."""
    x = np.asarray(x, dtype=_U64)
    with np.errstate(over="ignore"):
        z = (x + _GOLDEN)
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        z = z ^ (z >> _U64(31))
    return z


def unit_doubles(seed: int, start: int, count: int) -> np.ndarray:
    """`count` uniform doubles in [0, 1) for counters start..start+count-1."""
    return unit_doubles_at(seed, np.arange(start, start + count, dtype=np.int64))


def unit_doubles_at(seed: int, counters) -> np.ndarray:
    """Uniform doubles in [0, 1) at the given counters (any integer array)."""
    ctr = np.asarray(counters, dtype=np.int64).astype(_U64)
    with np.errstate(over="ignore"):
        z = splitmix64(_U64(seed % (1 << 64)) + ctr)
    return (z >> _U64(11)).astype(np.float64) * 2.0**-53


def complex_samples(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """`count` complex doubles with re, im independently uniform in [-1, 1)."""
    u = unit_doubles(seed, 2 * offset, 2 * count)
    re = 2.0 * u[0::2] - 1.0
    im = 2.0 * u[1::2] - 1.0
    return re + 1j * im
