"""Periodic grid, transforms, norms, and dealiased products.

Conventions (used consistently by every module):

* Domain is the torus [0, 2pi)^n sampled at x_i = 2*pi*i/N per axis.
* Frequencies are the integer lattice in numpy FFT layout,
  xi_axis in {0, 1, ..., N/2-1, -N/2, ..., -1}.
* Fields are real: samples are float64 arrays.  Coefficients are true
  Fourier coefficients, c_xi = fftn(f) / N^n, so that
  f(x) = sum_xi c_xi exp(i x.xi); they are complex and kept on the full
  N-lattice in that layout, Hermitian modulo N: c_(-xi) = conj(c_xi).
* Transforms are real-to-complex (`_forward`, numpy's rfftn) and back
  (`_inverse`, irfftn), which read and write the half spectrum, last-axis
  frequencies 0..N/2; the other half is its mirror.
* A product truncated from a finer grid (`field_from_padded`) keeps that
  grid's coefficients at frequency -N/2, which are not Hermitian there.  Its
  samples read the half spectrum alone (`_inverse`), so at -N/2 its
  coefficients and its samples differ; every norm reads what the samples do.
* L^p norms are taken with respect to the normalized (probability) measure on
  the torus: ||f||_p = (mean |f|^p)^(1/p).  With this pairing Parseval is
  exact: ||f||_2 equals the l^2 norm of the coefficients the samples read,
  which is how `l2_norm` reads it without a transform (`_half_norm`).
* Fields may be vector valued; arrays carry a leading component axis.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
import queue
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


def _real(value, what: str):
    """`value` as a real array (or number), unchanged when it is not complex;
    a nonzero imaginary part, which the real field path would drop, raises
    ValueError naming `what` and its largest |imaginary part|."""
    if not np.iscomplexobj(value):
        return value
    imag = np.max(np.abs(np.imag(value)), initial=0.0)
    if imag != 0.0:
        raise ValueError(f"{what} must be real: imaginary part up to {imag:.3g} "
                         f"(fields are real)")
    real = np.real(value)
    return np.ascontiguousarray(real) if np.ndim(real) else real


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
    """Real field on a GridSpec with lazily synced dual representations:
    float64 samples and complex coefficients, Hermitian on the full lattice.

    Arrays have shape (ncomp, *grid.shape).  Samples with a nonzero
    imaginary part are rejected, and so is a non-real scalar factor.  Fields
    are immutable by convention: operations return fresh instances and never
    write into the arrays of their inputs.  Representation sync is cached on
    first use; a representation synced from an all-zero one is zeros, made
    without a transform.
    """

    __slots__ = ("grid", "ncomp", "_phys", "_freq")

    def __init__(self, grid: GridSpec, phys=None, freq=None):
        if phys is None and freq is None:
            raise ValueError("need at least one representation")
        self.grid = grid
        self._phys = None if phys is None else self._check(grid, _real(phys, "samples"))
        self._freq = None if freq is None else self._check(grid, freq, np.complex128)
        self.ncomp = (self._phys if self._phys is not None else self._freq).shape[0]
        if self._phys is not None and self._freq is not None:
            if self._phys.shape != self._freq.shape:
                raise ValueError("representation shapes disagree")

    @staticmethod
    def _check(grid, arr, dtype=np.float64) -> np.ndarray:
        arr = np.asarray(arr, dtype=dtype)
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
            self._phys = (_inverse(self._freq) if self._freq.any()
                          else np.zeros(self._freq.shape))
        return self._phys

    @property
    def coefficients(self) -> np.ndarray:
        if self._freq is None:
            self._freq = (_forward(self._phys) if self._phys.any()
                          else np.zeros(self._phys.shape, complex))
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
        scalar = _real(scalar, f"scalar factor {scalar!r}")
        if self._freq is not None:
            return SpectralField(self.grid, freq=self._freq * scalar)
        return SpectralField(self.grid, phys=self._phys * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


# -- transforms ---------------------------------------------------------
#
# Every transform of a field goes through _forward and _inverse, one numpy
# call each; `_remainder_max` in psido, whose symbol samples are not
# Hermitian, takes the complex pair _complex_forward and _complex_inverse.
# Axis 0 is a batch (components, sample points); all later axes are
# transformed.


def _forward(phys: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Fourier coefficients of the real samples `phys`: rfftn over the
    spatial axes / their point count, scaled inside the transform
    (norm="forward").

    By default the full lattice: the half spectrum is written into its
    last-axis frequencies 0..N/2 and the rest is its mirror (`_mirror`).
    With `out`, whose last axis has N/2 + 1 entries, the half spectrum alone.
    """
    if out is not None:
        return np.fft.rfftn(phys, axes=tuple(range(1, phys.ndim)), norm="forward", out=out)
    full = np.empty(phys.shape, dtype=np.complex128)
    _forward(phys, out=full[..., :phys.shape[-1] // 2 + 1])
    return _mirror(full)


def _inverse(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real samples of the coefficients `coeffs`: irfftn over the spatial
    axes * their point count (unscaled under norm="forward"), which reads
    only the half spectrum, last-axis frequencies 0..N/2.

    `coeffs` is the full lattice, or, with `out` (the samples, which set the
    lattice), the half spectrum of out's lattice, whose last axis may stop
    short: irfftn pads it with zeros.
    """
    n = coeffs.shape[-1] if out is None else out.shape[-1]
    return np.fft.irfftn(coeffs[..., :n // 2 + 1], s=coeffs.shape[1:-1] + (n,),
                         axes=tuple(range(1, coeffs.ndim)), norm="forward", out=out)


def _complex_forward(a: np.ndarray) -> np.ndarray:
    """fftn over the spatial axes / their point count, for complex samples
    that no field holds."""
    return np.fft.fftn(a, axes=tuple(range(1, a.ndim)), norm="forward")


def _complex_inverse(c: np.ndarray) -> np.ndarray:
    """ifftn over the spatial axes * their point count: `_complex_forward` undone."""
    return np.fft.ifftn(c, axes=tuple(range(1, c.ndim)), norm="forward")


def _negated(n: int, m: int, h: int) -> tuple:
    """Per axis, (dst, src) slice pairs: the frequencies -h..h-1 in the
    n-point FFT layout (dst) and their negatives -xi in the m-point one (src),
    for h <= n/2, m/2.  Three basic slices, the last two reversed."""
    return ((slice(0, 1), slice(0, 1)), (slice(1, h), slice(m - 1, m - h, -1)),
            (slice(n - h, n), slice(h, 0, -1)))


def _blocks(per_axis: list):
    """Every (dst, src) index pair over the leading spatial axes of arrays
    with a component axis first and the last axis left open: one slice pair
    from per_axis[i] on leading axis i."""
    for combo in itertools.product(*per_axis):
        yield ((slice(None),) + tuple(d for d, _ in combo),
               (slice(None),) + tuple(s for _, s in combo))


def _mirror(c: np.ndarray, planes: bool = False) -> np.ndarray:
    """Write the entries of the full-lattice coefficients `c` at last-axis
    frequencies -(N/2 - 1)..-1 as the conjugates of their mirrors, c_(-xi),
    in place, one block copy per leading-axis block.

    With `planes`, the last-axis 0 and -N/2 planes, each its own mirror
    image, are made Hermitian among themselves the same way, axis by axis,
    down to the self-mirrored points, whose imaginary parts are zeroed.
    Returns `c`.
    """
    n = c.shape[-1]
    h = n // 2
    lead = [_negated(a, a, a // 2) for a in c.shape[1:-1]]
    for dst, src in _blocks(lead):
        np.conjugate(c[src + (slice(h - 1, 0, -1),)], out=c[dst + (slice(h + 1, n),)])
    if planes:
        for p in (0, h):
            plane = c[..., p]
            if plane.ndim > 1:
                _mirror(plane, planes=True)
            else:
                plane.imag = 0.0
    return c


def _pad_half(c: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """The half spectrum, on the m-point lattice, of the full-lattice
    coefficients `c`, moved there exactly and cut after last-axis frequency
    h, where h is half the smaller lattice: `_inverse` pads the rest of the
    last axis with zeros inside its one call, and its intermediates are no
    larger than this array.  The frequencies both lattices hold are block
    copies; the rest are zero.  With `out` the copies go there, and it must
    be zero.

    On a coarser or equal lattice its Nyquist slots take c's frequency -h.
    On a finer one, each of c's Nyquist planes (frequency -N/2 on some axis)
    is split evenly between -N/2 and +N/2 there, so the samples are real and
    read c's own values back at c's sample points.
    """
    n, h = c.shape[-1], min(c.shape[-1], m) // 2
    if out is None:
        out = np.zeros(_padded_shape(c.shape[0], n, m, c.ndim - 1), dtype=np.complex128)
    same = ((slice(0, h), slice(0, h)), (slice(m - h, m), slice(n - h, n)))
    for dst, src in _blocks([same] * (c.ndim - 2)):
        out[dst + (slice(0, h),)] = c[src + (slice(0, h),)]
        out[dst + (h,)] = c[src + (n - h,)]
    if m > n:
        out[..., h] *= 0.5
        for ax in range(1, c.ndim - 1):
            low = out[(slice(None),) * ax + (m - h,)]
            low *= 0.5
            out[(slice(None),) * ax + (h,)] = low
    return out


def _padded_shape(ncomp: int, n: int, m: int, dim: int) -> tuple:
    """The shape of `_pad_half`'s output for ncomp components moved from the
    n-point to the m-point lattice in dim dimensions."""
    return (ncomp,) + (m,) * (dim - 1) + (min(n, m) // 2 + 1,)


def _gather_half(half: np.ndarray, n: int) -> np.ndarray:
    """The full n-lattice coefficients of the real samples whose half
    spectrum on an m-point lattice is `half`: frequencies -h..h-1, where h is
    half the smaller lattice, are block copies of the half spectrum or
    conjugates of its mirrored blocks; the rest are zero.

    Each slot at frequency -h on the last axis takes the m-lattice
    coefficient there: the conjugate of +h with the other axes negated when
    m > n, and the m-lattice's own Nyquist column otherwise.  So a product
    truncated from a finer grid keeps that grid's values at -N/2, which are
    not Hermitian there; its samples, and its L^2 norm, read only its half
    spectrum (`_inverse`, `_half_norm`).
    """
    m = 2 * (half.shape[-1] - 1)
    h = min(m, n) // 2
    shape = (half.shape[0],) + (n,) * (half.ndim - 1)
    out = np.empty(shape, np.complex128) if m >= n else np.zeros(shape, np.complex128)
    same = ((slice(0, h), slice(0, h)), (slice(n - h, n), slice(m - h, m)))
    for dst, src in _blocks([same] * (half.ndim - 2)):
        out[dst + (slice(0, h),)] = half[src + (slice(0, h),)]
        if m <= n:
            out[dst + (n - h,)] = half[src + (h,)]
    lo = n - h + (m <= n)  # the first last-axis slot read from a mirror
    for dst, src in _blocks([_negated(n, m, h)] * (half.ndim - 2)):
        np.conjugate(half[src + (slice(n - lo, 0, -1),)], out=out[dst + (slice(lo, n),)])
    return out


# One helper thread, started on the first hand-off with nothing to import,
# serves a queue of the transforms `_soon` hands it, in order; `_one_ahead` is
# the one rule for handing off a run of them.  Each writes into an array the
# caller made: the C allocator keeps a memory pool per thread, and one for the
# helper would hold freed arrays too.  pocketfft's per-line scratch, and
# irfftn's complex intermediate over each leading axis of a 2-D or 3-D
# lattice, are made on the thread that transforms, so lines longer than
# _HELPER_MAX_LINE stay on the caller, whose pool already holds that much.
_HELPER_MIN_POINTS = 1 << 14  # below this many points per component the hand-off costs more
_HELPER_MAX_LINE = 1 << 17
_helper = None  # the helper's job queue
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    """In a forked child, which has no helper thread, start over."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def _serve(jobs: queue.SimpleQueue) -> None:
    """The helper: put each job's output, or what it raised, on its reply queue."""
    while True:
        run, transform, src, out, reply = jobs.get()
        try:
            reply.put(run(transform, src, out=out))
        except BaseException as exc:
            reply.put(exc)
        del run, transform, src, out, reply  # no array is held while the next job is awaited


def _soon(transform, src: np.ndarray, out: np.ndarray):
    """Start `transform(src, out=out)`, `transform` being `_forward` or
    `_inverse`, and return a handle: a callable with no arguments that waits
    for it and returns `out`, or raises what the transform raised.

    `src` and `out` are arrays the caller made and does not touch until the
    handle returns; the caller makes `out`, since a real transform cannot
    run in place.  From 2^14 lattice points per component, on lines of at
    most 2^17 points, the transform runs on the helper thread, under the
    caller's `np.errstate`, so the caller can do something else meanwhile;
    otherwise it runs here, at once.
    """
    global _helper
    if out[0].size < _HELPER_MIN_POINTS or max(out.shape[1:]) > _HELPER_MAX_LINE:
        transform(src, out=out)
        return lambda: out
    reply = queue.SimpleQueue()
    with _helper_lock:
        if _helper is None:
            _helper = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_helper,), name="lpw-transform",
                             daemon=True).start()
        _helper.put((contextvars.copy_context().run, transform, src, out, reply))

    def wait():
        done = reply.get()
        if isinstance(done, BaseException):
            raise done
        return done
    return wait


def _samples_soon(c: np.ndarray, M: int | None = None):
    """A `_soon` handle on the samples of the full-lattice coefficients `c`,
    on their own lattice or, with M, on the M-point one (as `_physical_at`),
    written into an array made here.  The transform is handed a copy of the
    half spectrum it reads, so a caller that lets `c` go frees it at once."""
    n = c.shape[-1] if M is None else M
    src = c[..., :n // 2 + 1].copy() if M is None else _pad_half(c, M)
    return _soon(_inverse, src, np.empty((c.shape[0],) + (n,) * (c.ndim - 1)))


def _one_ahead(items):
    """Yield `items` in order, taking item i + 1 before item i is yielded (one
    `_soon` handle in flight while the caller uses the last); hold none once yielded."""
    held = []
    for item in items:
        held.append(item)
        del item
        if len(held) == 2:
            yield held.pop(0)
    if held:
        yield held.pop()


# -- norms --------------------------------------------------------------


def lp_norm(f: SpectralField, p) -> float:
    """L^p norm with normalized measure, read from the samples; p = inf
    gives the max modulus.

    p must be >= 1, so NaN is rejected too, before any transform.  `l2_norm`
    reads p = 2 from the coefficients when f holds them.  A field that holds
    no samples and only zero coefficients has norm 0, read without a pass
    over its (zero) samples; otherwise the samples are synced and cached as
    `physical` does, with the coefficients scanned for zeros once.
    """
    _check_exponent(p)
    if f._phys is None:
        if not f._freq.any():
            return 0.0
        f._phys = _inverse(f._freq)
    return _modulus_norm(f.modulus(), p)


def l2_norm(f: SpectralField) -> float:
    """L^2 norm with normalized measure.

    When f holds its coefficients this is read from them with no transform,
    from the half spectrum its samples read (`_half_norm`, Parseval);
    otherwise it is read from the samples.  The two readings differ at
    roundoff, so one field read before and after its coefficients are cached
    can disagree with itself in its last digits.  No call site in the
    package does that.  Each reads a field that holds its coefficients when
    made (a projection, packet, random field or a sum of such), a field of
    samples read once (`psido.commutator_shell`), or a field whose
    coefficients are cached before its one reading (`run_probe` forms those
    of u_loc and V_loc as soon as each is localized, before reading either).
    """
    if f._freq is None:
        return _modulus_norm(f.modulus(), 2)
    return _half_norm(f._freq[..., :f.grid.points_per_axis // 2 + 1])


def _coefficient_norm(c: np.ndarray) -> float:
    """The plain l^2 norm of the complex array `c`, summed by numpy's own
    reduction over its real and imaginary parts.  BLAS's dot (np.vdot,
    np.linalg.norm) splits its sum by thread count, so its last digits
    depend on the host."""
    x = c.ravel().view(np.float64)
    return math.sqrt(np.einsum("i,i->", x, x))


def _half_norm(half: np.ndarray) -> float:
    """The L^2 norm, with normalized measure, of the real samples whose half
    spectrum (last-axis frequencies 0..N/2) is `half`, read as `_inverse`
    reads it: each column 1..N/2-1 counts twice, for itself and its mirror,
    and the columns 0 and N/2, each its own mirror image, count by their
    Hermitian part over the other axes, which is themselves when the
    coefficients are Hermitian.  Sums of squares are numpy's own
    reductions, as in `_coefficient_norm`."""
    h, axes = half.shape[-1] - 1, "abcde"[:half.ndim]
    ends, lead = half[..., ::h], tuple(range(1, half.ndim - 1))
    herm = np.roll(np.flip(ends, lead), 1, lead)  # a fresh array: ends at -xi, modulo N
    np.conjugate(herm, out=herm)
    herm += ends
    herm *= 0.5
    sq = [sum(np.einsum(f"{axes},{axes}->", part, part) for part in (c.real, c.imag))
          for c in (herm, half[..., 1:h])]
    return math.sqrt(sq[0] + 2.0 * sq[1])


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


def _physical_at(c: np.ndarray, M: int) -> np.ndarray:
    """Physical samples, on the M-point lattice, of the field whose
    full-lattice coefficients are `c`; exact when its band is below M/2.

    The half spectrum is written on the M lattice (`_pad_half`) and
    transformed back; `c` is never written.
    """
    return _inverse(_pad_half(c, M), out=np.empty((c.shape[0],) + (M,) * (c.ndim - 1)))


def _padded_size(N: int) -> int:
    """Points per axis of the 3/2 grid, the rule's size for full-band factors."""
    return alias_free_size(N, N / 2, N / 2, N / 2)


def padded_physical(f: SpectralField) -> np.ndarray:
    """Physical samples of `f` on the 3/2 grid."""
    return _physical_at(f.coefficients, _padded_size(f.grid.points_per_axis))


def field_from_padded(grid: GridSpec, fine: np.ndarray) -> SpectralField:
    """Truncate fine-grid physical samples back to coefficients on `grid`:
    the half spectrum on the fine lattice, gathered onto `grid`'s full
    lattice (`_gather_half`).  `fine` is not written."""
    M = fine.shape[-1]
    half = _forward(fine, out=np.empty(fine.shape[:-1] + (M // 2 + 1,), dtype=np.complex128))
    return SpectralField(grid, freq=_gather_half(half, grid.points_per_axis))


def _pair_product_fine(pv: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """The product of two fine-grid sample arrays, formed in `pw`'s buffer.

    Matching multi-component inputs contract over components (dot), summed
    into slot 0 in component order; a scalar against anything broadcasts.  A
    product wider than `pw` goes to a fresh array.  `pv` is never written and
    stays the first operand.  The result equals `pv * pw` (or its `np.sum`
    over axis 0) bit for bit on any array of more than one element, so on
    every lattice.
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
    """Seeded real random field, reproducible irrespective of chunking.

    Coefficients are drawn by the counter-based generator in `lpw.rng` in
    row-major lattice order (component-major), optionally multiplied by a
    radial profile(|xi|) and restricted to |xi| <= band, and then made
    Hermitian in place (`_mirror`): the entries at last-axis frequencies
    1..N/2-1 keep their draws and the mirrored ones take their conjugates;
    the last-axis 0 and -N/2 planes are made Hermitian among themselves.
    Nyquist modes are always cleared.  The draw is the only full-size array
    made: every step writes into it, and the profile is evaluated on one
    block of the lattice's |xi| at a time, so it must act pointwise.
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
    _mirror(c, planes=True)
    _clear_nyquist(c)
    if mean_zero:
        c[(slice(None),) + (0,) * grid.dim] = 0.0
    return SpectralField(grid, freq=c)
