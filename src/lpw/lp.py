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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .grid import GridSpec, SpectralField, _modulus_norm, lp_norm
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
    """Dyadic partition of unity sampled on a grid's frequency lattice."""

    grid: GridSpec
    jmax: int
    profiles: tuple          # index 0 = low cap, 1..jmax = shells

    def profile(self, j: int) -> np.ndarray:
        if not 0 <= j <= self.jmax:
            raise ValueError(f"shell index {j} out of range [0, {self.jmax}]")
        return self.profiles[j]

    def partition_deviation(self) -> float:
        """Max pointwise deviation of the profile sum from 1 on the lattice."""
        return float(np.max(np.abs(sum(self.profiles) - 1.0)))


def build_partition(grid: GridSpec) -> LPPartition:
    """Build the partition for a grid; needs at least 3 dyadic shells."""
    J = grid.jmax
    if J < 3:
        raise ValueError(f"grid too small: only {J} dyadic shells, need >= 3")
    r = grid.xi_abs
    profiles = [profile_value(j, r) for j in range(J)]
    profiles.append(1.0 - psi(r / 2.0 ** (J - 1)))
    return LPPartition(grid, J, tuple(profiles))


def project(part: LPPartition, f: SpectralField, j: int) -> SpectralField:
    """Ring projection: coefficients multiplied by profile j."""
    prof = part.profile(j)
    return SpectralField(f.grid, freq=f.coefficients * prof)


def project_window(part: LPPartition, f: SpectralField, lo: int, hi: int) -> SpectralField:
    """Sum of projections over shell indices lo..hi inclusive (clipped)."""
    lo = max(lo, 0)
    hi = min(hi, part.jmax)
    if hi < lo:
        return SpectralField.zeros(f.grid, f.ncomp)
    return SpectralField(f.grid, freq=f.coefficients * sum(part.profiles[lo:hi + 1]))


def bernstein_ratio(f: SpectralField, j: int, p, q) -> float:
    """||f||_q divided by the dyadic bound 2^(n j (1/p - 1/q)) ||f||_p.

    Requires supp fhat inside the ball of radius 2^j; a lattice coefficient
    outside carrying more than 1e-12 of the energy is rejected.
    """
    if not (1 <= p <= math.inf and 1 <= q <= math.inf and p <= q):
        raise ValueError(f"need 1 <= p <= q <= inf, got p={p}, q={q}")
    c = f.coefficients
    outside = f.grid.xi_abs > 2.0**j
    leak = np.linalg.norm(c[:, outside].ravel())
    total = np.linalg.norm(c.ravel())
    if total == 0:
        raise ValueError("zero field")
    if leak > 1e-12 * total:
        raise ValueError(f"frequency support exceeds ball of radius 2^{j} (leak {leak/total:.2e})")
    ip = 0.0 if p == math.inf else 1.0 / p
    iq = 0.0 if q == math.inf else 1.0 / q
    scale = 2.0 ** (f.grid.dim * j * (ip - iq))
    return lp_norm(f, q) / (scale * lp_norm(f, p))


def shell_moduli(part: LPPartition, f: SpectralField, lo: int = 0, hi: int | None = None):
    """Yield |P_j f| for j = lo..hi (every shell by default).

    The one split of a field into shells: one inverse transform per shell,
    made when the next is asked for, so a caller that reduces each shell as
    it comes never holds them all.
    """
    coeffs = f.coefficients
    for j in range(lo, (part.jmax if hi is None else hi) + 1):
        yield SpectralField(f.grid, freq=coeffs * part.profile(j)).modulus()


def _reduce_shells(part: LPPartition, f: SpectralField, r=None, pairs=(),
                   lo: int = 0, hi: int | None = None) -> tuple:
    """From one streamed split of f: the L^r norm of each shell lo..hi (if r
    is given) and the smoothness norm ||f||_{s,p} for each (s, p) in pairs,

        (||P_cap f||_p^p + || (sum_j 2^(2js) |P_j f|^2)^(1/2) ||_p^p)^(1/p).
    """
    for _, p in pairs:
        if not 1.0 < p < math.inf:
            raise ValueError(f"p must be in (1, inf), got {p}")
    if pairs and (lo, hi) not in ((0, None), (0, part.jmax)):
        raise ValueError("a smoothness norm needs every shell")
    norms, caps, squares = [], [0.0] * len(pairs), [0.0] * len(pairs)
    for j, mod in enumerate(shell_moduli(part, f, lo, hi), lo):
        if r is not None:
            norms.append(_modulus_norm(mod, r))
        for i, (s, p) in enumerate(pairs):
            if j == 0:
                caps[i] = _modulus_norm(mod, p)
            else:
                squares[i] = squares[i] + (4.0 ** (j * s)) * mod * mod
    smoothness = []
    for cap, sq, (_, p) in zip(caps, squares, pairs):
        sf_norm = float(np.mean(np.sqrt(sq) ** p) ** (1.0 / p))
        smoothness.append(float((cap**p + sf_norm**p) ** (1.0 / p)))
    return norms, smoothness


def sobolev_norms(part: LPPartition, f: SpectralField, pairs) -> list:
    """Smoothness norms ||f||_{s,p} (s real, 1 < p < inf), one per pair, from one split."""
    return _reduce_shells(part, f, pairs=list(pairs))[1]


def sobolev_norm(part: LPPartition, f: SpectralField, s: float, p: float) -> float:
    """Inhomogeneous smoothness norm ||f||_{s,p} from the dyadic square function."""
    return sobolev_norms(part, f, [(s, p)])[0]


@dataclass
class DyadicNormSequence:
    """Per-shell L^r norms of a field: values[i] belongs to shell lo + i.

    `smoothness` is ||f||_{sigma,r} when the sequence was taken with sigma.
    """

    r: float
    values: np.ndarray
    lo: int = 0
    smoothness: float | None = None

    def to_csv(self, path) -> None:
        with open(Path(path), "w", newline="") as fh, np.errstate(divide="ignore"):
            w = csv.writer(fh)
            w.writerow(["j", "norm", "log2norm"])
            logs = np.log2(self.values)
            for j, (v, lv) in enumerate(zip(self.values, logs), self.lo):
                w.writerow([j, repr(float(v)), repr(float(lv))])


def dyadic_norm_sequence(part: LPPartition, f: SpectralField, r, lo: int = 0,
                         hi: int | None = None, sigma: float | None = None
                         ) -> DyadicNormSequence:
    """L^r norms of the shells lo..hi of f; with sigma (every shell), also ||f||_{sigma,r}."""
    pairs = () if sigma is None else ((sigma, r),)
    norms, smoothness = _reduce_shells(part, f, r, pairs, lo, hi)
    return DyadicNormSequence(r, np.array(norms), lo, smoothness[0] if pairs else None)


# -- seeded synthetic fields ---------------------------------------------
#
# Shared by the test suite and the CLI verifiers, so they live here rather
# than in test helpers: determinism of the CLI outputs depends on them.


def shell_packet(
    part: LPPartition, j: int, seed: int, coherent: bool = True, ncomp: int = 1
) -> SpectralField:
    """Field supported on ring j.

    coherent=True draws nonnegative random amplitudes with aligned phases —
    a focusing packet extremal for the dyadic norm-growth inequalities.
    coherent=False draws generic complex amplitudes.
    """
    grid = part.grid
    M = grid.npoints
    raw = rng.complex_samples(seed, ncomp * M).reshape((ncomp,) + grid.shape)
    if coherent:
        raw = 1.0 + 0.5 * raw.real  # amplitudes in [0.5, 1.5], zero phase
    c = raw * part.profile(j)
    c[:, grid.nyquist_mask] = 0.0
    return SpectralField(grid, freq=c)


def shell_sum_field(
    part: LPPartition,
    scales,
    seed: int,
    norm_p: float = 2.0,
    ncomp: int = 1,
) -> SpectralField:
    """Sum over shells of unit-L^p-normalized random packets times scales[j].

    scales maps shell index (0..jmax) to the target per-shell magnitude;
    missing indices contribute nothing.  Adjacent-ring overlap perturbs the
    realized per-shell norms by a bounded factor only.
    """
    grid = part.grid
    total = np.zeros((ncomp,) + grid.shape, dtype=np.complex128)
    for j, scale in dict(scales).items():
        if scale == 0.0:
            continue
        pkt = shell_packet(part, j, seed + 101 * j, coherent=False, ncomp=ncomp)
        nrm = lp_norm(pkt, norm_p)
        if nrm > 0:
            total += (scale / nrm) * pkt.coefficients
    return SpectralField(grid, freq=total)


def flat_dyadic_field(part: LPPartition, seed: int, ncomp: int = 1) -> SpectralField:
    """Random field with roughly unit L^2 mass in every shell 1..jmax."""
    return shell_sum_field(
        part, {j: 1.0 for j in range(1, part.jmax + 1)}, seed, ncomp=ncomp
    )
