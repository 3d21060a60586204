"""Periodic grid, transforms, norms, and dealiased products.

Conventions (used consistently by every module):

* Domain is the torus [0, 2pi)^n sampled at x_i = 2*pi*i/N per axis.
* Frequencies are the integer lattice in numpy FFT layout,
  xi_axis in {0, 1, ..., N/2-1, -N/2, ..., -1}.
* Coefficients are true Fourier coefficients, c_xi = fftn(f) / N^n, so that
  f(x) = sum_xi c_xi exp(i x.xi).
* L^p norms are taken with respect to the normalized (probability) measure on
  the torus: ||f||_p = (mean |f|^p)^(1/p).  With this pairing Parseval is
  exact: ||f||_2 equals the plain l^2 norm of the coefficients, which is how
  `l2_norm` reads it without a transform.
* Fields may be vector valued; arrays carry a leading component axis.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, 2pi)^dim with N points per axis.

    N must be a power of two, N >= 16.  dim up to 4 is accepted; 4 exists only
    for the full-dimension flow probe and is slow.
    """

    dim: int
    points_per_axis: int

    def __post_init__(self):
        n, N = self.dim, self.points_per_axis
        if n not in (1, 2, 3, 4):
            raise ValueError(f"dim must be in 1..4, got {n}")
        if N < 16 or (N & (N - 1)) != 0:
            raise ValueError(f"points_per_axis must be a power of two >= 16, got {N}")

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def npoints(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def jmax(self) -> int:
        """Largest dyadic shell index: largest j with 2^j <= N/2."""
        return int(math.log2(self.points_per_axis)) - 1

    def _per_axis(self, base: np.ndarray) -> tuple:
        """The 1-d array `base` laid along each axis in turn, broadcastable to shape."""
        return tuple(base.reshape((1,) * ax + (-1,) + (1,) * (self.dim - ax - 1))
                     for ax in range(self.dim))

    @cached_property
    def xi_axes(self) -> tuple:
        """Integer frequency values along each axis, broadcastable to shape."""
        N = self.points_per_axis
        return self._per_axis(np.fft.fftfreq(N, d=1.0 / N))  # 0..N/2-1, -N/2..-1 as floats

    def xi_abs2(self) -> np.ndarray:
        """|xi|^2 on the lattice, summed afresh on each call (not cached)."""
        return _abs2(*self.xi_axes)

    @cached_property
    def xi_abs(self) -> np.ndarray:
        out = self.xi_abs2()
        return np.sqrt(out, out=out)

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """True at lattice points having any axis frequency equal to -N/2."""
        ny = -(self.points_per_axis // 2)
        mask = np.zeros(self.shape, dtype=bool)
        for a in self.xi_axes:
            mask |= a == ny
        return mask

    @cached_property
    def x_axes(self) -> tuple:
        """Physical coordinates along each axis, broadcastable to shape."""
        N = self.points_per_axis
        return self._per_axis(2.0 * np.pi * np.arange(N) / N)

    @cached_property
    def center_distance(self) -> np.ndarray:
        """center_distance at every grid point."""
        return center_distance(*self.x_axes)


def _abs2(*axes) -> np.ndarray:
    """|xi|^2, the sum of the squared frequency components `axes` in order,
    as a fresh array of their broadcast shape: the one place it is written."""
    out = np.square(axes[0])
    for a in axes[1:]:
        out = out + np.square(a)
    return out


def _modulus(arr: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean modulus over the leading component axis of `arr`."""
    if arr.shape[0] == 1:
        return np.abs(arr[0])
    return np.sqrt(np.sum(np.abs(arr) ** 2, axis=0))


def _clear_nyquist(c: np.ndarray) -> np.ndarray:
    """Zero, in place, the Nyquist modes of the coefficient array `c`
    (leading component axis): index N/2, frequency -N/2, on each spatial
    axis, one slice per axis.  Returns `c`."""
    ny = c.shape[-1] // 2
    for ax in range(1, c.ndim):
        c[(slice(None),) * ax + (ny,)] = 0.0
    return c


def center_distance(*xs) -> np.ndarray:
    """Geodesic distance from the points `xs` to the cell center pi*(1,..,1).

    Spatial bumps are centered there so their supports never wrap.
    """
    d2 = 0.0
    for x in xs:
        w = np.mod(np.asarray(x) - np.pi + np.pi, 2.0 * np.pi) - np.pi
        d2 = d2 + w * w
    return np.sqrt(d2)


class SpectralField:
    """Complex field on a GridSpec with lazily synced dual representations.

    Arrays have shape (ncomp, *grid.shape).  Fields are immutable by
    convention: operations return fresh instances and never write into the
    arrays of their inputs.  Representation sync is cached on first use; a
    representation synced from an all-zero one is zeros, made without a
    transform.
    """

    __slots__ = ("grid", "ncomp", "_phys", "_freq")

    def __init__(self, grid: GridSpec, phys=None, freq=None):
        if phys is None and freq is None:
            raise ValueError("need at least one representation")
        self.grid = grid
        self._phys = None if phys is None else self._check(grid, phys)
        self._freq = None if freq is None else self._check(grid, freq)
        self.ncomp = (self._phys if self._phys is not None else self._freq).shape[0]
        if self._phys is not None and self._freq is not None:
            if self._phys.shape != self._freq.shape:
                raise ValueError("representation shapes disagree")

    @staticmethod
    def _check(grid, arr) -> np.ndarray:
        arr = np.asarray(arr, dtype=np.complex128)
        if arr.shape == grid.shape:
            arr = arr[np.newaxis, ...]
        if arr.shape[1:] != grid.shape or arr.ndim != grid.dim + 1:
            raise ValueError(f"array shape {arr.shape} does not match grid {grid.shape}")
        return arr

    @classmethod
    def zeros(cls, grid: GridSpec, ncomp: int = 1) -> "SpectralField":
        return cls(grid, freq=np.zeros((ncomp,) + grid.shape, complex))

    @property
    def physical(self) -> np.ndarray:
        if self._phys is None:
            self._phys = _inverse(self._freq) if self._freq.any() else np.zeros_like(self._freq)
        return self._phys

    @property
    def coefficients(self) -> np.ndarray:
        if self._freq is None:
            self._freq = _forward(self._phys) if self._phys.any() else np.zeros_like(self._phys)
        return self._freq

    def component(self, c: int) -> "SpectralField":
        return SpectralField(
            self.grid,
            phys=None if self._phys is None else self._phys[c : c + 1],
            freq=None if self._freq is None else self._freq[c : c + 1],
        )

    def modulus(self) -> np.ndarray:
        """Pointwise Euclidean modulus over components (real array)."""
        return _modulus(self.physical)

    def without_nyquist(self) -> "SpectralField":
        return SpectralField(self.grid, freq=_clear_nyquist(self.coefficients.copy()))

    # -- arithmetic -----------------------------------------------------

    def _binary(self, other, op):
        if not isinstance(other, SpectralField):
            return NotImplemented
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        if self.ncomp != other.ncomp:
            raise ValueError("component mismatch")
        if self._freq is not None and other._freq is not None:
            return SpectralField(self.grid, freq=op(self._freq, other._freq))
        if self._phys is not None and other._phys is not None:
            return SpectralField(self.grid, phys=op(self._phys, other._phys))
        return SpectralField(self.grid, freq=op(self.coefficients, other.coefficients))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        if isinstance(scalar, SpectralField):
            raise TypeError("use dealiased_product / grid_product for field products")
        if self._freq is not None:
            return SpectralField(self.grid, freq=self._freq * scalar)
        return SpectralField(self.grid, phys=self._phys * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


# -- transforms ---------------------------------------------------------
#
# Every transform in the package goes through _forward and _inverse.  Axis 0
# is a batch (components, sample points); all later axes are transformed.


def _forward(phys: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Fourier coefficients: fftn over the spatial axes / their point count.

    The transform scales inside its axis passes (norm="forward"), so no pass
    over the output follows; on 2^a lattices the values equal fftn(phys) / N^n
    bit for bit.  With `out` (which may be `phys` itself) every axis pass
    writes there, so no intermediate array is made.
    """
    return np.fft.fftn(phys, axes=tuple(range(1, phys.ndim)), norm="forward", out=out)


def _inverse(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Physical samples: ifftn over the spatial axes * their point count,
    unscaled under norm="forward"; `out` as for `_forward`."""
    return np.fft.ifftn(coeffs, axes=tuple(range(1, coeffs.ndim)), norm="forward", out=out)


# One helper thread, made on first use, runs the inverse transforms that
# `_inverse_soon` hands it, in the order handed.  Each writes into an array the
# caller made, so every array is allocated on the caller's thread: the C
# allocator keeps a memory pool per thread, and one for the helper would hold
# freed arrays too.
_HELPER_MIN_POINTS = 1 << 14  # below this many points per component the hand-off costs more
_helper = None
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    """In a forked child, which has no helper thread, start over."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def _inverse_soon(buf: np.ndarray):
    """Start `_inverse(buf, out=buf)` and return a handle: a callable with no
    arguments that waits for it and returns `buf`, or raises what the
    transform raised.

    `buf` is a coefficient array the caller made and does not touch until the
    handle returns.  From 2^14 lattice points per component the transform
    runs on the helper thread, under the caller's `np.errstate`, so the
    caller can reduce something else meanwhile; below that it runs here, at
    once.
    """
    global _helper
    if buf[0].size < _HELPER_MIN_POINTS:
        _inverse(buf, out=buf)
        return lambda: buf
    with _helper_lock:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor

            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="lpw-inverse")
        return _helper.submit(contextvars.copy_context().run, _inverse, buf, buf).result


# -- norms --------------------------------------------------------------


def lp_norm(f: SpectralField, p) -> float:
    """L^p norm with normalized measure, read from the samples; p = inf
    gives the max modulus.

    p must be >= 1, so NaN is rejected too, before any transform.  `l2_norm`
    reads p = 2 from the coefficients when f holds them.
    """
    _check_exponent(p)
    return _modulus_norm(f.modulus(), p)


def l2_norm(f: SpectralField) -> float:
    """L^2 norm with normalized measure.

    When f holds its coefficients this is their plain l^2 norm over every
    component (Parseval), with no transform; otherwise it is read from the
    samples.  The two readings differ at roundoff, so one field read before
    and after its coefficients are cached can disagree with itself.  No call
    site in the package does that.  Each reads a field that holds its
    coefficients when made (a projection, packet, random field or a sum of
    such), a field of samples read once (`psido.commutator_shell`), or a field
    whose coefficients are cached before its one reading (`run_probe` applies
    L to u_loc and pads V_loc in the nonlinearity before reading either).
    """
    if f._freq is None:
        return _modulus_norm(f.modulus(), 2)
    return _coefficient_norm(f._freq)


def _coefficient_norm(c: np.ndarray) -> float:
    """The plain l^2 norm of the complex array `c`, summed by numpy's own
    reduction over its real and imaginary parts.  BLAS's dot (np.vdot,
    np.linalg.norm) splits its sum by thread count, so its last digits
    depend on the host."""
    x = c.ravel().view(np.float64)
    return math.sqrt(np.einsum("i,i->", x, x))


def _norm(f: SpectralField, p) -> float:
    """L^p norm for an exponent known only at run time: `l2_norm` at p = 2,
    `lp_norm` otherwise."""
    return l2_norm(f) if p == 2 else lp_norm(f, p)


def _check_exponent(p) -> None:
    """Raise unless p >= 1, inf included; NaN is not."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")


def _modulus_norm(mod: np.ndarray, p) -> float:
    """L^p norm, with normalized measure, of a pointwise modulus array."""
    _check_exponent(p)
    if p == math.inf:
        return float(np.max(mod))
    if p == 2:
        return float(np.sqrt(np.mean(mod * mod)))
    return float(np.mean(mod**p) ** (1.0 / p))


# -- products -----------------------------------------------------------


def alias_free_size(N: int, b1: float, b2: float, K: float) -> int:
    """The one dealiasing rule: points per axis for a product on the N-point lattice.

    Factors band-limited per axis to b1 and b2, read at |xi_a| <= K, are
    multiplied exactly on the smallest M = 2^a, 3*2^a or 5*2^a with
    M > max(b1 + b2 + K, 2 max(b1, b2)) (Orszag, J. Atmos. Sci. 28 (1971)
    1074), capped at the 3/2 grid, which is exact for any two lattice fields.
    """
    need = max(b1 + b2 + K, 2.0 * max(b1, b2))
    smallest = min(base << max(0, math.floor(math.log2(need / base)) + 1) for base in (1, 3, 5))
    return min(smallest, 3 * N // 2)


def _relattice(coeffs: np.ndarray, n_out: int) -> np.ndarray:
    """Coefficients moved to the n_out-point lattice, exactly.

    Per axis, frequencies 0..h-1 sit first and -h..-1 last in both layouts,
    so the frequencies both lattices hold are 2^dim block copies; the rest
    are zero.
    """
    h = min(coeffs.shape[1], n_out) // 2
    out = np.zeros((coeffs.shape[0],) + (n_out,) * (coeffs.ndim - 1), dtype=np.complex128)
    for block in itertools.product((slice(0, h), slice(-h, None)), repeat=coeffs.ndim - 1):
        out[(slice(None),) + block] = coeffs[(slice(None),) + block]
    return out


def _physical_at(f: SpectralField, M: int) -> np.ndarray:
    """Physical samples of `f` on the M-point lattice; exact when f's band is below M/2.

    The fresh lattice copy is transformed in place; f's own arrays are never written.
    """
    buf = _relattice(f.coefficients, M)
    return _inverse(buf, out=buf)


def padded_physical(f: SpectralField) -> np.ndarray:
    """Physical samples of `f` on the 3/2 grid, the rule's size for full-band factors."""
    N = f.grid.points_per_axis
    return _physical_at(f, alias_free_size(N, N / 2, N / 2, N / 2))


def field_from_padded(grid: GridSpec, fine: np.ndarray) -> SpectralField:
    """Truncate fine-grid physical samples back to coefficients on `grid`.

    The forward transform runs in place, so `fine` (a complex array the
    caller no longer reads) holds the fine-grid coefficients afterwards.
    """
    return SpectralField(grid, freq=_relattice(_forward(fine, out=fine), grid.points_per_axis))


def _pair_product_fine(pv: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """The product of two fine-grid sample arrays, formed in `pw`'s buffer.

    Matching multi-component inputs contract over components (dot), summed
    into slot 0 in component order; a scalar against anything broadcasts.  A
    product wider than `pw` goes to a fresh array.  `pv` is never written and
    stays the first operand: the complex multiply is not bitwise commutative.
    The result equals `pv * pw` (or its `np.sum` over axis 0) bit for bit on
    any array of more than one element, so on every lattice.
    """
    if pv.shape[0] > pw.shape[0]:
        return pv * pw
    np.multiply(pv, pw, out=pw)
    if pv.shape[0] == 1:
        return pw
    pw[0] += 0.0  # np.sum's start: a slot of -0.0 terms sums to +0.0
    for c in range(1, pw.shape[0]):
        pw[0] += pw[c]
    return pw[:1]


def _check_pair(f: SpectralField, g: SpectralField) -> None:
    """Raise unless f and g share a grid and their components broadcast."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    if f.ncomp != g.ncomp and 1 not in (f.ncomp, g.ncomp):
        raise ValueError(f"cannot combine {f.ncomp} and {g.ncomp} components")


def dealiased_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased pointwise product: matching multi-component factors contract
    to the scalar sum_c f_c g_c, and a scalar factor broadcasts.

    Both factors are padded to the 3/2 grid, so every retained coefficient
    equals the true convolution of the inputs and the frequency support is
    contained in the Minkowski sum of the input supports within the
    resolvable band.
    """
    _check_pair(f, g)
    return field_from_padded(f.grid, _pair_product_fine(padded_physical(f), padded_physical(g)))


def grid_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Raw (non-dealiased) grid product: the multiplication *operator*.

    This is the exact action of multiplication by g on grid samples;
    localization cutoffs use it so that supports stay pointwise exact.
    """
    _check_pair(f, g)
    return SpectralField(f.grid, phys=f.physical * g.physical)


# -- random fields ------------------------------------------------------


def random_field(
    grid: GridSpec,
    seed: int,
    ncomp: int = 1,
    band: float | None = None,
    radial_profile=None,
    mean_zero: bool = True,
) -> SpectralField:
    """Seeded random field, reproducible irrespective of chunking.

    Coefficients are drawn by the counter-based generator in `lpw.rng` in
    row-major lattice order (component-major), optionally multiplied by a
    radial profile(|xi|) and restricted to |xi| <= band.  Nyquist modes are
    always cleared.  The draw is the only full-size array made: every step
    writes into it, and the profile is evaluated on one block of the
    lattice's |xi| at a time, so it must act pointwise.
    """
    c = rng.complex_samples(seed, ncomp * grid.npoints).reshape((ncomp,) + grid.shape)
    if radial_profile is not None or band is not None:
        flat, r = c.reshape(ncomp, -1), grid.xi_abs.reshape(-1)
        for lo in range(0, r.size, rng._BLOCK):
            blk = slice(lo, lo + rng._BLOCK)
            cb, rb = flat[:, blk], r[blk]
            if radial_profile is not None:
                cb *= radial_profile(rb)
            if band is not None:
                np.copyto(cb, 0.0, where=rb > band)
    _clear_nyquist(c)
    if mean_zero:
        c[(slice(None),) + (0,) * grid.dim] = 0.0
    return SpectralField(grid, freq=c)
