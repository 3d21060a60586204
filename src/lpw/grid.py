"""Periodic grid, transforms, norms, and dealiased products.

Conventions (used consistently by every module):

* Domain is the torus [0, 2pi)^n sampled at x_i = 2*pi*i/N per axis.
* Frequencies are the integer lattice in numpy FFT layout,
  xi_axis in {0, 1, ..., N/2-1, -N/2, ..., -1}.
* Coefficients are true Fourier coefficients, c_xi = fftn(f) / N^n, so that
  f(x) = sum_xi c_xi exp(i x.xi).
* L^p norms are taken with respect to the normalized (probability) measure on
  the torus: ||f||_p = (mean |f|^p)^(1/p).  With this pairing Parseval is
  exact: ||f||_2 equals the plain l^2 norm of the coefficients.
* Fields may be vector valued; arrays carry a leading component axis.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import rng

_FILE_MAGIC = b"LPWFIELD"
_FILE_VERSION = 1


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

    @cached_property
    def xi_axes(self) -> tuple:
        """Integer frequency values along each axis, broadcastable to shape."""
        N = self.points_per_axis
        base = np.fft.fftfreq(N, d=1.0 / N)  # 0..N/2-1, -N/2..-1 as floats
        axes = []
        for ax in range(self.dim):
            sh = [1] * self.dim
            sh[ax] = N
            axes.append(base.reshape(sh))
        return tuple(axes)

    @cached_property
    def xi_abs2(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for a in self.xi_axes:
            out = out + a * a
        return out

    @cached_property
    def xi_abs(self) -> np.ndarray:
        return np.sqrt(self.xi_abs2)

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
        base = 2.0 * np.pi * np.arange(N) / N
        axes = []
        for ax in range(self.dim):
            sh = [1] * self.dim
            sh[ax] = N
            axes.append(base.reshape(sh))
        return tuple(axes)

    @cached_property
    def center_distance(self) -> np.ndarray:
        """center_distance at every grid point."""
        return center_distance(*self.x_axes)


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
    arrays of their inputs.  Representation sync is cached on first use.
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
        return cls(grid, freq=np.zeros((ncomp,) + grid.shape, dtype=np.complex128))

    @property
    def physical(self) -> np.ndarray:
        if self._phys is None:
            self._phys = _inverse(self._freq)
        return self._phys

    @property
    def coefficients(self) -> np.ndarray:
        if self._freq is None:
            self._freq = _forward(self._phys)
        return self._freq

    def component(self, c: int) -> "SpectralField":
        return SpectralField(
            self.grid,
            phys=None if self._phys is None else self._phys[c : c + 1],
            freq=None if self._freq is None else self._freq[c : c + 1],
        )

    def modulus(self) -> np.ndarray:
        """Pointwise Euclidean modulus over components (real array)."""
        p = self.physical
        if self.ncomp == 1:
            return np.abs(p[0])
        return np.sqrt(np.sum(np.abs(p) ** 2, axis=0))

    def mean(self) -> np.ndarray:
        return self.coefficients[(slice(None),) + (0,) * self.grid.dim].copy()

    def without_mean(self) -> "SpectralField":
        c = self.coefficients.copy()
        c[(slice(None),) + (0,) * self.grid.dim] = 0.0
        return SpectralField(self.grid, freq=c)

    def without_nyquist(self) -> "SpectralField":
        c = self.coefficients.copy()
        c[:, self.grid.nyquist_mask] = 0.0
        return SpectralField(self.grid, freq=c)

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
            raise TypeError("use pointwise_product / grid_product for field products")
        if self._freq is not None:
            return SpectralField(self.grid, freq=self._freq * scalar)
        return SpectralField(self.grid, phys=self._phys * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def representation_error(self) -> float:
        """Relative disagreement between the two representations, if both exist."""
        if self._phys is None or self._freq is None:
            return 0.0
        back = _forward(self._phys)
        num = np.linalg.norm((back - self._freq).ravel())
        den = np.linalg.norm(self._freq.ravel())
        return float(num / den) if den > 0 else float(num)


# -- transforms ---------------------------------------------------------
#
# Every transform in the package goes through _forward and _inverse.  Axis 0
# is a batch (components, sample points); all later axes are transformed.


def _forward(phys: np.ndarray) -> np.ndarray:
    """Fourier coefficients: fftn over the spatial axes / their point count."""
    out = np.fft.fftn(phys, axes=tuple(range(1, phys.ndim)))
    out /= math.prod(phys.shape[1:])
    return out


def _inverse(coeffs: np.ndarray) -> np.ndarray:
    """Physical samples: ifftn over the spatial axes * their point count."""
    out = np.fft.ifftn(coeffs, axes=tuple(range(1, coeffs.ndim)))
    out *= math.prod(coeffs.shape[1:])
    return out


# -- norms --------------------------------------------------------------


def lp_norm(f: SpectralField, p) -> float:
    """L^p norm with normalized measure; p = inf gives the max modulus.

    p < 1 is rejected.
    """
    return _modulus_norm(f.modulus(), p)


def _modulus_norm(mod: np.ndarray, p) -> float:
    """L^p norm, with normalized measure, of a pointwise modulus array."""
    if p != math.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    if p == math.inf:
        return float(np.max(mod))
    if p == 2:
        return float(np.sqrt(np.mean(mod * mod)))
    return float(np.mean(mod**p) ** (1.0 / p))


# -- products -----------------------------------------------------------


def _pad_factor(degree: int) -> float:
    # 3/2 zero padding is exact for quadratic products on the retained
    # lattice; degree-3 products need padding to 2N.
    if degree == 2:
        return 1.5
    if degree == 3:
        return 2.0
    raise ValueError(f"degree must be 2 or 3, got {degree}")


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


def padded_physical(f: SpectralField, degree: int = 2) -> np.ndarray:
    """Physical samples of `f` on the dealiasing fine grid (M points/axis)."""
    N = f.grid.points_per_axis
    M = int(N * _pad_factor(degree))
    return _inverse(_relattice(f.coefficients, M))


def field_from_padded(grid: GridSpec, fine: np.ndarray) -> SpectralField:
    """Truncate fine-grid physical samples back to coefficients on `grid`."""
    return SpectralField(grid, freq=_relattice(_forward(fine), grid.points_per_axis))


def _pair_product_fine(pv: np.ndarray, pw: np.ndarray) -> np.ndarray:
    # matching multi-component inputs contract over components (dot); a
    # scalar against anything broadcasts
    if pv.shape[0] == pw.shape[0] and pv.shape[0] > 1:
        return np.sum(pv * pw, axis=0, keepdims=True)
    return pv * pw


def _check_pair(f: SpectralField, g: SpectralField) -> None:
    """Raise unless f and g share a grid and their components broadcast."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    if f.ncomp != g.ncomp and 1 not in (f.ncomp, g.ncomp):
        raise ValueError(f"cannot combine {f.ncomp} and {g.ncomp} components")


def pointwise_product(f: SpectralField, g: SpectralField, degree: int = 2) -> SpectralField:
    """Dealiased pointwise product (componentwise, scalars broadcast).

    `degree` is the total polynomial degree of the expression the product
    participates in: 2 selects 3/2-padding (exact quadratics), 3 selects
    2x padding (exact cubics).  Every retained coefficient equals the true
    convolution of the inputs, so the frequency support is contained in the
    Minkowski sum of the input supports within the resolvable band.
    """
    _check_pair(f, g)
    pf = padded_physical(f, degree)
    pg = padded_physical(g, degree)
    return field_from_padded(f.grid, pf * pg)


def _pair_product(V: SpectralField, w: SpectralField, degree: int = 2) -> SpectralField:
    """Dealiased V w, contracted over components as in _pair_product_fine."""
    if V.grid != w.grid:
        raise ValueError("grid mismatch")
    fine = _pair_product_fine(padded_physical(V, degree), padded_physical(w, degree))
    return field_from_padded(V.grid, fine)


def dot_product(f: SpectralField, g: SpectralField, degree: int = 2) -> SpectralField:
    """Dealiased pointwise dot product sum_c f_c * g_c (scalar output)."""
    if f.ncomp != g.ncomp:
        raise ValueError("component mismatch for dot product")
    return _pair_product(f, g, degree)


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
    always cleared.
    """
    M = grid.npoints
    c = rng.complex_samples(seed, ncomp * M).reshape((ncomp,) + grid.shape)
    if radial_profile is not None:
        c = c * radial_profile(grid.xi_abs)
    if band is not None:
        c = np.where(grid.xi_abs <= band, c, 0.0)
    c[:, grid.nyquist_mask] = 0.0
    fld = SpectralField(grid, freq=c)
    if mean_zero:
        fld = fld.without_mean()
    return fld


# -- binary field files -------------------------------------------------


def write_field(path, f: SpectralField) -> None:
    """Write the binary field file plus its JSON sidecar.

    Layout: 16-byte header (8-byte magic, u32 version, 4 pad bytes), then
    little-endian u32 dim, u32 N, u32 components, then float64 (re, im)
    pairs in row-major physical order, component-major.
    """
    path = Path(path)
    g = f.grid
    header = _FILE_MAGIC + struct.pack("<I", _FILE_VERSION) + b"\x00" * 4
    meta = struct.pack("<III", g.dim, g.points_per_axis, f.ncomp)
    data = np.ascontiguousarray(f.physical, dtype=np.complex128)
    pairs = data.view(np.float64)
    if pairs.dtype.byteorder not in ("<", "="):  # pragma: no cover
        pairs = pairs.astype("<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(meta)
        fh.write(pairs.tobytes())
    sidecar = {
        "dim": g.dim,
        "points_per_axis": g.points_per_axis,
        "components": f.ncomp,
        "domain": "torus [0,2pi)^n",
        "layout": "row-major physical order, little-endian float64 re/im pairs",
        "version": _FILE_VERSION,
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def read_field(path) -> SpectralField:
    """Read a write_field file; a malformed one raises ValueError naming why."""
    raw = Path(path).read_bytes()
    if raw[:8] != _FILE_MAGIC:
        raise ValueError("not a field file (bad magic)")
    if len(raw) < 28:
        raise ValueError(f"truncated field file header ({len(raw)} of 28 bytes)")
    version, pad, dim, N, ncomp = struct.unpack("<I4sIII", raw[8:28])
    if version != _FILE_VERSION:
        raise ValueError(f"unsupported field file version {version}")
    if pad != bytes(4):
        raise ValueError("nonzero pad bytes 12-15 in field file header")
    grid = GridSpec(dim, N)
    if ncomp < 1:
        raise ValueError(f"field file has {ncomp} components; need at least 1")
    count = ncomp * grid.npoints
    if len(raw) != 28 + 16 * count:
        raise ValueError(f"field file is {len(raw)} bytes; its header "
                         f"(dim {dim}, N {N}, {ncomp} components) needs {28 + 16 * count}")
    sidecar = Path(str(path) + ".json")
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
        header = {"dim": dim, "points_per_axis": N, "components": ncomp}
        if not isinstance(meta, dict) or any(meta.get(k) != v for k, v in header.items()):
            raise ValueError(f"sidecar {sidecar.name} disagrees with the header {header}")
    flat = np.frombuffer(raw, dtype="<f8", offset=28, count=2 * count)
    vals = flat[0::2] + 1j * flat[1::2]
    return SpectralField(grid, phys=vals.reshape((ncomp,) + grid.shape))
