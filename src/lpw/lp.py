"""Dyadic partition of unity, ring projections, and dyadic norms.

The ring profiles are telescoped differences of a single smooth radial ramp
psi with psi = 1 on |xi| <= 6/5 and psi = 0 on |xi| >= 5/3:

    cap      (j=0):       psi(|xi|)
    shell j  (1..J-1):    psi(|xi|/2^j) - psi(|xi|/2^(j-1))
    top shell (j=J):      1 - psi(|xi|/2^(J-1))

so the partition sums to 1 *identically* on the whole lattice and shell j is
supported in the ring 2^j*3/5 <= |xi| <= 2^j*5/3 for j < J.  The top shell
absorbs the remaining resolvable band up to the lattice corner (it is the
inhomogeneous tail projection); its nominal ring bound holds on the lattice
for dim <= 2 and is clipped at the corner otherwise.

Every reader of a support (projections, packets, profiles, the partition's
own checks) walks it with `LPPartition.support`, one block of at most
`rng._BLOCK` sites at a time, as `rng` draws and `build_partition` builds:
besides its output, a reader makes nothing of full length.  Each step is
elementwise, so the blocks change no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .grid import (GridSpec, SpectralField, _check_exponent, _coefficient_norm, _half_norm,
                   _inverse, _mirror, _modulus, _modulus_norm, _one_ahead, _soon, l2_norm)
from .smooth import ramp_down

RING_LO = 3.0 / 5.0
RING_HI = 5.0 / 3.0
_PSI_ONE = 2.0 * RING_LO  # psi == 1 for |xi| <= 6/5
_PSI_ZERO = RING_HI       # psi == 0 for |xi| >= 5/3


def psi(r):
    """Low-pass ramp generating the dyadic partition."""
    return ramp_down(r, _PSI_ONE, _PSI_ZERO)


def profile_value(j: int, r):
    """Analytic ring profile for shell j >= 1 (cap for j = 0).

    Detached from any grid: valid for arbitrary j and real r.  Used for
    symbol-side computations where shells beyond the lattice band matter.
    The gridded partition's top shell additionally absorbs the tail; this
    function always returns the plain telescoped ring.
    """
    r = np.asarray(r, dtype=float)
    if j == 0:
        return psi(r)
    if j < 0:
        raise ValueError("shell index must be >= 0")
    return psi(r / 2.0**j) - psi(r / 2.0 ** (j - 1))


@dataclass(frozen=True)
class LPPartition:
    """Dyadic partition of unity sampled on a grid's frequency lattice.

    Every lattice point lies in at most two adjacent shells: its lower shell
    j0, the first j with psi(|xi|/2^j) > 0 (jmax where there is none), where
    profile j0 takes a value t, and shell j0 + 1, where it takes 1 - t; every
    other profile is 0 there.  So the partition is held as the flat lattice
    indices `sites`, stably sorted by j0, the values t at those sites
    (`weight`), and the offsets `starts`: the points with lower shell j are
    sites[starts[j]:starts[j+1]].  Dense profiles are built only on demand.
    """

    grid: GridSpec
    jmax: int
    sites: np.ndarray        # flat lattice indices, sorted by lower shell
    weight: np.ndarray       # value t of the lower shell's profile at each site
    starts: np.ndarray       # jmax + 2 offsets into sites, one segment per lower shell

    def support(self, lo: int, hi: int):
        """The profile sum over shells lo..hi, as (sites, values) pieces of at
        most `rng._BLOCK` sites: one slice of `sites` walked in order, with
        1 - t on segment lo - 1, 1 on segments lo..hi-1 and t on segment hi,
        which is how the dense sum of those profiles rounds at each point
        (t + (1 - t) rounds to 1 for every t in [0, 1]).  Zero off the
        yielded sites; each piece's values are its own array."""
        for j in (lo, hi):
            if not 0 <= j <= self.jmax:
                raise ValueError(f"shell index {j} out of range [0, {self.jmax}]")
        a, b = self.starts[max(lo - 1, 0)], self.starts[hi + 1]
        for s in range(a, b, rng._BLOCK):
            e = min(s + rng._BLOCK, b)
            head, tail = max(self.starts[lo] - s, 0), max(self.starts[hi] - s, 0)
            values = self.weight[s:e].copy()
            np.subtract(1.0, values[:head], out=values[:head])
            values[head:tail] = 1.0
            yield self.sites[s:e], values

    def profile(self, j: int) -> np.ndarray:
        """Profile j on the whole lattice (built on demand)."""
        out = np.zeros(self.grid.npoints)
        for sites, values in self.support(j, j):
            out[sites] = values
        return out.reshape(self.grid.shape)

    @property
    def profiles(self) -> tuple:
        """Every profile on the whole lattice, index 0 = low cap, 1..jmax = shells."""
        return tuple(self.profile(j) for j in range(self.jmax + 1))

    def partition_deviation(self) -> float:
        """Max pointwise deviation of the profile sum from 1 on the lattice,
        all of which is the support of the whole sum."""
        return max(float(np.max(np.abs(values - 1.0))) for _, values in self.support(0, self.jmax))


def build_partition(grid: GridSpec) -> LPPartition:
    """Build the partition for a grid; needs at least 3 dyadic shells.

    The psi loop runs over one block of the lattice at a time, so besides
    what the partition keeps it holds one byte per point (the lower shells)
    and the unsorted weights.
    """
    J = grid.jmax
    if J < 3:
        raise ValueError(f"grid too small: only {J} dyadic shells, need >= 3")
    r = grid.xi_abs.ravel()
    lower = np.full(r.size, J, dtype=np.int8)
    weight = np.ones(r.size)
    for lo in range(0, r.size, rng._BLOCK):
        # psi(|xi|/2^j) > 0 implies psi(|xi|/2^(j+1)) == 1, so, from the top
        # down, the last j with a positive psi is the lower shell and psi
        # there its t; only the points still positive at j + 1 are evaluated at j
        blk = slice(lo, lo + rng._BLOCK)
        rb, lb, wb = r[blk], lower[blk], weight[blk]
        idx = np.arange(rb.size)
        for j in range(J - 1, -1, -1):
            low = psi(rb[idx] / 2.0**j)
            inside = low > 0.0
            idx = idx[inside]
            lb[idx] = j
            wb[idx] = low[inside]
    starts = np.zeros(J + 2, dtype=np.intp)
    np.cumsum(np.bincount(lower, minlength=J + 1), out=starts[1:])
    # one stable counting pass per shell: each segment in lattice order,
    # which is the order argsort(lower, kind="stable") gives
    sites = np.empty(r.size, dtype=np.intp)
    for j in range(J + 1):
        sites[starts[j]:starts[j + 1]] = np.flatnonzero(lower == j)
    del lower  # freed before the weights are gathered into site order
    return LPPartition(grid, J, sites, weight[sites], starts)


def _on_support(part: LPPartition, coeffs: np.ndarray, lo: int, hi: int,
                half: bool = False) -> np.ndarray:
    """coeffs times the profile sum over shells lo..hi, formed at its support
    only, one piece at a time: the one gather and scatter behind every
    projection, whose only full-length array is its output.  With `half`,
    only the half spectrum (last-axis frequencies 0..N/2) is formed, which is
    all an inverse transform reads."""
    n = coeffs.shape[-1]
    flat = coeffs.reshape(coeffs.shape[0], -1)
    shape = coeffs.shape[:-1] + ((n // 2 + 1,) if half else (n,))
    out = np.zeros((len(flat), math.prod(shape[1:])), dtype=np.complex128)
    for sites, values in part.support(lo, hi):
        put = sites
        if half:
            keep = sites % n <= n // 2
            sites, values = sites[keep], values[keep]
            put = sites - (sites // n) * (n - n // 2 - 1)  # the flat index on the half lattice
        for src, dst in zip(flat, out):
            dst[put] = src[sites] * values
    return out.reshape(shape)


def project(part: LPPartition, f: SpectralField, j: int) -> SpectralField:
    """Ring projection: coefficients multiplied by profile j."""
    return SpectralField(f.grid, freq=_on_support(part, f.coefficients, j, j))


def project_window(part: LPPartition, f: SpectralField, lo: int, hi: int) -> SpectralField:
    """Sum of projections over shell indices lo..hi inclusive (clipped)."""
    lo = max(lo, 0)
    hi = min(hi, part.jmax)
    if hi < lo:
        return SpectralField.zeros(f.grid, f.ncomp)
    return SpectralField(f.grid, freq=_on_support(part, f.coefficients, lo, hi))


def bernstein_ratio(f: SpectralField, j: int, p, q) -> float:
    """||f||_q divided by the dyadic bound 2^(n j (1/p - 1/q)) ||f||_p.

    Requires supp fhat inside the ball of radius 2^j; a lattice coefficient
    outside carrying more than 1e-12 of the energy is rejected.
    """
    scale = _bernstein_guard(f, j, p, q)[1]
    mod = f.modulus()
    return _modulus_norm(mod, q) / (scale * _modulus_norm(mod, p))


def _bernstein_guard(f: SpectralField, j: int, p, q) -> tuple:
    """The checks of `bernstein_ratio`, read from f's coefficients: f's L^2
    norm (their l^2 norm, by Parseval) and the bound's factor
    2^(n j (1/p - 1/q)), which times ||f||_p is the bound at radius 2^j.

    The outside of the ball is scanned one block of the lattice at a time.
    When it holds no nonzero coefficient the leak is 0 and nothing is
    gathered.  Otherwise the outside coefficients are gathered whole by
    `np.compress` over the flattened lattice: the elements of
    `c[:, outside]`, in its order, so the leak is summed alike, without
    numpy's boolean indexing over trailing axes, which took several times as
    long."""
    if not (1 <= p <= math.inf and 1 <= q <= math.inf and p <= q):
        raise ValueError(f"need 1 <= p <= q <= inf, got p={p}, q={q}")
    c = f.coefficients
    flat = c.reshape(len(c), -1)
    r, radius = f.grid.xi_abs.ravel(), 2.0**j
    blocks = (slice(lo, lo + rng._BLOCK) for lo in range(0, r.size, rng._BLOCK))
    leak = 0.0
    if any(np.compress(r[b] > radius, flat[:, b], axis=1).any() for b in blocks):
        leak = _coefficient_norm(np.compress(r > radius, flat, axis=1))
    total = _coefficient_norm(c)
    if total == 0:
        raise ValueError("zero field")
    if leak > 1e-12 * total:
        raise ValueError(f"frequency support exceeds ball of radius 2^{j} (leak {leak/total:.2e})")
    ip = 0.0 if p == math.inf else 1.0 / p
    iq = 0.0 if q == math.inf else 1.0 / q
    return total, 2.0 ** (f.grid.dim * j * (ip - iq))


def shell_norms(part: LPPartition, f: SpectralField, rs=(), pairs=()) -> tuple:
    """The one split of f into shells 0..jmax, reduced as it streams: for
    each exponent r in rs the L^r norm of every shell (a row of an array),
    and for each (s, p) in pairs the smoothness norm

        ||f||_{s,p} = (||P_cap f||_p^p + || (sum_j 2^(2js) |P_j f|^2)^(1/2) ||_p^p)^(1/p).

    Each shell is gathered as its half spectrum, which is all its inverse
    transform reads.  Exponent 2 is read from it (`_half_norm`), and the
    p = 2 square function has ||.||_2^2 = sum_j 4^(js) ||P_j f||_2^2.  A
    shell is inverse-transformed only when a requested exponent is not 2,
    and never when it is empty: an empty shell's every norm is its L^2 norm,
    0, and it adds nothing to a square function.  Each shell's transform is
    handed to `_soon`, one shell ahead (`_one_ahead`); the reductions run in
    shell order, as they would without the hand-off.
    """
    for r in rs:
        _check_exponent(r)
    for _, p in pairs:
        if not 1.0 < p < math.inf:
            raise ValueError(f"p must be in (1, inf), got {p}")
    transform = any(e != 2 for e in list(rs) + [p for _, p in pairs])
    coeffs = f.coefficients

    def gather(j):
        """j, shell j's L^2 norm and, if needed and not empty, a handle on its samples,
        both read from its half spectrum."""
        c = _on_support(part, coeffs, j, j, half=True)
        l2 = _half_norm(c)
        if not (transform and c.any()):
            return j, l2, None
        return j, l2, _soon(_inverse, c, np.empty((len(c),) + f.grid.shape))

    norms = np.zeros((len(rs), part.jmax + 1))
    caps, squares = [0.0] * len(pairs), [0.0] * len(pairs)
    for j, l2, samples in _one_ahead(map(gather, range(part.jmax + 1))):
        mod = None if samples is None else _modulus(samples())
        del samples  # neither the handle nor the shell's samples are held while it is reduced
        for i, r in enumerate(rs):
            norms[i, j] = l2 if r == 2 or mod is None else _modulus_norm(mod, r)
        for i, (s, p) in enumerate(pairs):
            if j == 0:
                caps[i] = l2 if p == 2 or mod is None else _modulus_norm(mod, p)
            elif p == 2:
                squares[i] = squares[i] + (4.0 ** (j * s)) * l2 * l2
            elif mod is not None:
                squares[i] = squares[i] + (4.0 ** (j * s)) * mod * mod
        del mod  # no modulus is held while the shell after next is gathered
    smoothness = []
    for cap, sq, (_, p) in zip(caps, squares, pairs):
        if p == 2:
            sf_norm = math.sqrt(sq)
        else:
            sf_norm = float(np.mean(np.sqrt(sq) ** p) ** (1.0 / p))
        smoothness.append(float((cap**p + sf_norm**p) ** (1.0 / p)))
    return norms, smoothness


# -- seeded synthetic fields ---------------------------------------------
#
# Shared by the test suite and the CLI verifiers, so they live here rather
# than in test helpers: determinism of the CLI outputs depends on them.


def shell_packet(part: LPPartition, j: int, seed: int, coherent: bool = True) -> SpectralField:
    """Real scalar field supported on ring j.

    coherent=True draws nonnegative random amplitudes with zero phase, a
    cosine sum sum_xi a_xi cos(x.xi) — a focusing packet extremal for the
    dyadic norm-growth inequalities.  coherent=False draws generic complex
    amplitudes.  Only the ring's sites with last-axis frequency 0..N/2 are
    drawn, with the counters of a whole-lattice draw; the coefficients are
    then made Hermitian in place, as `random_field`'s are (`_mirror`).
    """
    grid = part.grid
    nyquist = grid.nyquist_mask.ravel()
    N = grid.points_per_axis
    c = np.zeros(grid.npoints, dtype=np.complex128)
    for sites, values in part.support(j, j):
        keep = (values != 0.0) & ~nyquist[sites] & (sites % N <= N // 2)
        sites, values = sites[keep], values[keep]
        # the counters of a whole-lattice draw (rng's layout), taken at the ring's sites only
        ctr = 2 * sites
        re = 2.0 * rng.unit_doubles_at(seed, ctr) - 1.0
        if coherent:
            raw = 1.0 + 0.5 * re  # amplitudes in [0.5, 1.5], zero phase
        else:
            raw = re + 1j * (2.0 * rng.unit_doubles_at(seed, ctr + 1) - 1.0)
        c[sites] = raw * values
    return SpectralField(grid, freq=_mirror(c.reshape((1,) + grid.shape), planes=True))


def _shell_sum_fields(part: LPPartition, scales, seed: int, norm_ps) -> list:
    """For each exponent p in norm_ps, the scalar sum over shells of unit-L^p
    random packets times scales[j].

    scales maps shell index (0..jmax) to the target per-shell magnitude;
    missing indices contribute nothing.  Adjacent-ring overlap perturbs the
    realized per-shell norms by a bounded factor only.  Each packet is drawn
    once and, when some exponent is not 2, inverse-transformed once: every
    L^p norm but L^2 (read from the coefficients) comes from its one modulus.
    Each packet is added on its ring's support only.
    """
    grid = part.grid
    totals = [np.zeros(grid.npoints, dtype=np.complex128) for _ in norm_ps]
    for j, scale in dict(scales).items():
        if scale == 0.0:
            continue
        pkt = shell_packet(part, j, seed + 101 * j, coherent=False)
        mod = pkt.modulus() if any(p != 2 for p in norm_ps) else None
        nrms = [l2_norm(pkt) if p == 2 else _modulus_norm(mod, p) for p in norm_ps]
        flat = pkt.coefficients.reshape(-1)
        for sites, _ in part.support(j, j):
            c = flat[sites]
            for total, nrm in zip(totals, nrms):
                if nrm > 0:
                    total[sites] += (scale / nrm) * c
    return [SpectralField(grid, freq=t.reshape((1,) + grid.shape)) for t in totals]


def shell_sum_field(part: LPPartition, scales, seed: int, norm_p: float = 2.0) -> SpectralField:
    """`_shell_sum_fields` for the one exponent norm_p."""
    return _shell_sum_fields(part, scales, seed, (norm_p,))[0]


def flat_dyadic_field(part: LPPartition, seed: int) -> SpectralField:
    """Random scalar field with roughly unit L^2 mass in every shell 1..jmax."""
    return shell_sum_field(part, {j: 1.0 for j in range(1, part.jmax + 1)}, seed)
