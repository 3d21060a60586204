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

Draws are written in blocks, in place: into the output's own float64 view,
at most ``_BLOCK`` values at a time, with the layout above unchanged.  A
draw makes nothing of full length besides its output.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_BLOCK = 1 << 15  # values, or lattice points, per block of an in-place pass


def splitmix64(x, scratch=None):
    """splitmix64 finalizer on uint64 input (scalar or array).

    With a `scratch` buffer of x's shape, the steps run in place on the
    uint64 array `x`; otherwise on a copy of it.
    """
    if scratch is None:
        x = np.array(x, dtype=_U64)
        scratch = np.empty_like(x)
    x += _GOLDEN
    for shift, mult in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(x, _U64(shift), out=scratch)
        x ^= scratch
        if mult is not None:
            x *= mult
    return x


def _fill(out: np.ndarray, seed: int, counters, signed: bool = False) -> np.ndarray:
    """Write u64_to_unit(mix(seed, counter)), or 2 times it minus 1 with
    `signed`, into the flat float64 array `out`, one entry per counter: the
    int64 array `counters`, or counters, counters + 1, ... for an integer.

    The mixing runs in place on one uint64 block buffer, with the block of
    `out` it is about to fill as its scratch.
    """
    z = np.empty(min(_BLOCK, out.size), dtype=_U64)
    for lo in range(0, out.size, _BLOCK):
        ob = out[lo:lo + _BLOCK]
        zb = z[:ob.size]
        zb[...] = (np.arange(counters + lo, counters + lo + ob.size) if np.ndim(counters) == 0
                   else counters[lo:lo + _BLOCK])
        zb += _U64(seed % (1 << 64))  # modulo 2^64
        splitmix64(zb, ob.view(_U64))
        zb >>= _U64(11)
        ob[...] = zb
        ob *= 2.0**-52 if signed else 2.0**-53  # 2 (x >> 11) 2^-53, exactly, if signed
        if signed:
            ob -= 1.0
    return out


def unit_doubles_at(seed: int, counters) -> np.ndarray:
    """Uniform doubles in [0, 1) at the given counters (any integer array)."""
    ctr = np.asarray(counters, dtype=np.int64)
    out = np.empty(ctr.shape)
    _fill(out.reshape(-1), seed, ctr.reshape(-1))
    return out


def complex_samples(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """`count` complex doubles with re, im independently uniform in [-1, 1):
    re and im of entry i are the signed values at counters 2(offset + i)
    and 2(offset + i) + 1, written into the output's float64 view."""
    out = np.empty(count, dtype=np.complex128)
    _fill(out.view(np.float64), seed, 2 * offset, signed=True)
    return out
