"""Ellipticity, parametrix, and the shell/commutator estimate machinery.

Everything here is measurement: the operations compute the two sides of the
operator estimates on concrete fields and report the implied constants or
slopes, rather than proving anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (GridSpec, SpectralField, _complex_forward, _complex_inverse, _one_ahead,
                   _real, _samples_soon, center_distance, l2_norm)
from .lp import LPPartition, _on_support, profile_value, project, project_window, shell_norms
from .smooth import ramp_down, ramp_up
from . import rng, symbols as sym_mod
from .symbols import (Symbol, _abs_xi, _apply_table, _masked_inverse, _separable_table,
                      _table_sum, _table_terms, apply)


# -- shared slope fitting -------------------------------------------------


@dataclass
class SlopeReport:
    """Least-squares fit of log2(values) against shell index."""

    ks: tuple
    slope: float
    max_residual: float
    dropped: tuple = ()


def fit_log2_slope(ks, values) -> SlopeReport:
    """Fit log2(values) ~ intercept + slope*k, dropping entries at or below 1e-14."""
    floor = 1e-14
    ks = list(ks)
    values = [float(v) for v in values]
    kept = [(k, v) for k, v in zip(ks, values) if v > floor]
    dropped = tuple(k for k, v in zip(ks, values) if v <= floor)
    if len(kept) < 2:
        raise ValueError(f"fewer than 2 shells above floor {floor}; cannot fit slope")
    kk = np.array([k for k, _ in kept], dtype=float)
    lv = np.log2([v for _, v in kept])
    slope, intercept = np.polyfit(kk, lv, 1)
    resid = float(np.max(np.abs(lv - (intercept + slope * kk))))
    return SlopeReport(
        ks=tuple(int(k) for k, _ in kept),
        slope=float(slope),
        max_residual=resid,
        dropped=dropped,
    )


# -- ellipticity ----------------------------------------------------------


CUTOFF = 4.0  # |xi| from which ellipticity is scanned and the parametrix inverts


def _x_sample_points(grid: GridSpec, mask=None):
    """Coarse spatial sample for symbol scans (16 points per axis); tuple of 1-d arrays."""
    stride = max(1, grid.points_per_axis // 16)
    idx_axes = [np.arange(0, grid.points_per_axis, stride) for _ in range(grid.dim)]
    mesh = np.meshgrid(*[2.0 * np.pi * ia / grid.points_per_axis for ia in idx_axes],
                       indexing="ij")
    pts = [m.ravel() for m in mesh]
    if mask is not None:
        keep = mask(*pts)
        pts = [p[keep] for p in pts]
    return tuple(pts)


def _symbol_floor(sym: Symbol, grid: GridSpec, r_min: float, shift: float,
                  x_mask=None) -> float:
    """inf |a(x, xi)| / (shift + |xi|)^m over lattice |xi| >= r_min, sampled x.

    The lattice is scanned one block of `rng._BLOCK` points at a time, each
    block's axis frequencies read at its flat indices; the floor is one
    `np.min` over the blocks' minima, exact and NaN-propagating as one over
    the whole set is.  x is scanned on a coarse subgrid (optionally masked),
    in chunks that bound the evaluated block to about 4M entries; multipliers
    skip the x scan.  0 when no lattice point qualifies.
    """
    multiplier = sym.kind == "multiplier"
    if not multiplier:
        pts = _x_sample_points(grid, x_mask)
        if pts[0].size == 0:
            raise ValueError("empty x sample")
    r = grid.xi_abs.ravel()
    axes = [a.ravel() for a in grid.xi_axes]
    mins = []
    for lo in range(0, r.size, rng._BLOCK):
        idx = lo + np.flatnonzero(r[lo:lo + rng._BLOCK] >= r_min)
        if idx.size == 0:
            continue
        scale = (shift + r[idx]) ** sym.order
        xi_use = tuple(a[i] for a, i in zip(axes, np.unravel_index(idx, grid.shape)))
        if multiplier:
            mins.append(np.min(np.abs(np.asarray(sym.xi_func(*xi_use))) / scale))
            continue
        chunk = max(1, (1 << 22) // idx.size)
        xis = tuple(x[None, :] for x in xi_use)
        mins += [np.min(np.abs(sym.eval_xy(tuple(p[s:s + chunk, None] for p in pts), xis))
                        / scale[None, :]) for s in range(0, pts[0].size, chunk)]
    return float(np.min(mins)) if mins else 0.0


def ellipticity_margin(sym: Symbol, grid: GridSpec, x_mask=None) -> float:
    """inf of |a(x, xi)| / |xi|^m over the lattice with |xi| >= CUTOFF.

    A positive return certifies ellipticity on the sampled set; 0 means the
    symbol vanishes there.  x is scanned on a coarse subgrid for x-dependent
    symbols.
    """
    m = sym.order
    if m <= 0:
        raise ValueError(f"ellipticity needs positive order, got {m}")
    return _symbol_floor(sym, grid, CUTOFF, 0.0, x_mask)


# -- elliptic splitting and parametrix -------------------------------------


@dataclass(frozen=True)
class EllipticSplit:
    """L = E + M with E bounded below at high frequency and M dead on the ball."""

    E: Symbol
    M: Symbol

    def parametrix(self) -> Symbol:
        """First-order approximate inverse of E, of E's kind: chi(|xi|) / e(xi)
        for a multiplier, (1 / b(x)) (chi / c)(xi) for a one-term separable
        b(x) c(xi), where the smooth cutoff chi is 0 below CUTOFF/2 and 1 from
        CUTOFF on.

        For multiplier E the composition with E is the identity on |xi| >=
        CUTOFF exactly; for x-dependent E the defect gains one order per
        shell.  The full asymptotic series is deliberately not built.  Any
        other E raises ValueError naming it.  E's lower bound is the one
        `split_elliptic` scanned (and raised on); `apply` rejects a 1/b made
        infinite by a zero of b that the scan's x sample missed.
        """
        E = self.E
        if not (E.kind == "multiplier" or (E.kind == "separable" and len(E.terms) == 1)):
            raise ValueError(f"parametrix of {E.name!r} needs a multiplier or a one-term "
                             f"separable symbol, got kind {E.kind!r} with {len(E.terms)} terms")

        def inverse(e, xis):
            return _masked_inverse(e, ramp_up(_abs_xi(*xis), CUTOFF / 2.0, CUTOFF))

        name = f"{E.name}:parametrix"
        if E.kind == "multiplier":
            return sym_mod.multiplier(
                -E.order, lambda *xis: inverse(np.asarray(E.xi_func(*xis)), xis), name)
        (bx, cxi), = E.terms
        return sym_mod.separable(
            -E.order, [(lambda *xs: 1.0 / np.asarray(bx(*xs)),
                        lambda *xis: inverse(np.asarray(cxi(*xis)), xis))], name)


def _ball_window(*xs):
    """1 on the unit ball about the cell center, 0 beyond radius 1.5."""
    return ramp_down(center_distance(*xs), 1.0, 1.5)


def split_elliptic(L: Symbol, grid: GridSpec) -> EllipticSplit:
    """Split L into a globally invertible part E and a remainder M.

    E agrees with L on the unit ball (so M vanishes there) and is glued to
    the frozen-center symbol l(x_c, xi) outside (E = L, M = 0 exactly for
    x-independent L).  Raises if L fails the sampled ellipticity bound.
    """
    ball = ellipticity_margin(
        L, grid,
        x_mask=(lambda *xs: center_distance(*xs) <= 1.0)
        if L.kind != "multiplier" else None,
    )
    if ball <= 0.0:
        raise ValueError("non-elliptic input: sampled lower bound is 0 on the ball")

    if L.kind == "multiplier":
        E, M = L, sym_mod.zero_symbol(L.order, name=f"{L.name}:remainder")
    else:
        if L.kind != "separable":
            raise ValueError(f"cannot split symbols of kind {L.kind!r}")
        center = (np.pi,) * grid.dim
        e_terms, m_terms = [], []
        for bx, cxi in L.terms:
            b_c = float(_real(np.asarray(bx(*center)), f"x part of symbol {L.name!r}"))

            def b_glued(*xs, _bx=bx, _bc=b_c):
                ww = _ball_window(*xs)
                return ww * np.asarray(_bx(*xs)) + (1.0 - ww) * _bc

            def b_rest(*xs, _bx=bx, _bc=b_c):
                return (1.0 - _ball_window(*xs)) * (np.asarray(_bx(*xs)) - _bc)

            e_terms.append((b_glued, cxi))
            m_terms.append((b_rest, cxi))
        E = sym_mod.separable(L.order, e_terms, name=f"{L.name}:invertible")
        M = sym_mod.separable(L.order, m_terms, name=f"{L.name}:remainder")
        # a multiplier E = L was bounded below on the same set by the margin
        if _symbol_floor(E, grid, CUTOFF, 1.0) <= 0.0:
            raise ValueError("splitting failed: glued symbol not bounded below at high frequency")
    return EllipticSplit(E=E, M=M)


# -- shell estimates --------------------------------------------------------


def ap_shell_ratios(symbols, part: LPPartition, f: SpectralField, ks) -> list:
    """For each symbol A, the L^2 ratios ||A P_k f||_2 / (2^{km} ||P_{k-1..k+1} f||_2)
    over the shells k in ks (NaN where the window is empty).

    The loop over k is the outer one: each shell's projection and window
    norm are formed once for every symbol, and one projection is alive at a
    time.
    """
    symbols = list(symbols)
    ratios = [[] for _ in symbols]
    for k in ks:
        pk = project(part, f, k)
        window = l2_norm(project_window(part, f, k - 1, k + 1))
        for A, out in zip(symbols, ratios):
            num = l2_norm(apply(A, pk))
            den = 2.0 ** (k * A.order) * window
            out.append(math.nan if den == 0.0 else num / den)
    return ratios


def commutator_shell(A: Symbol, part: LPPartition, f: SpectralField, ks) -> list:
    """||(P_k A - A P_k) f||_2 for each shell k >= 10 in ks, applying A to f once.

    The difference is taken in physical space, where the norm reads it.
    Frequency multipliers commute with ring projections identically, so the
    multiplier fast path returns exactly 0.0 without touching the field.
    A's terms are evaluated on the lattice once, for f and every P_k f.
    Af's coefficients are taken once.  The inverse transforms of each shell,
    those of A P_k f's terms and then P_k(Af)'s, are handed to `_soon` one
    shell ahead (`_one_ahead`), while the shell before is finished here: its
    terms are scaled by b_t(x) and summed in table order (`_table_sum`, as
    `apply` sums them) and the difference is reduced.
    """
    bad = [k for k in ks if not 10 <= k <= part.jmax]
    if bad:
        raise ValueError(f"shell commutator needs 10 <= k <= jmax={part.jmax}, got {bad}")
    if A.is_multiplier:
        return [0.0 for _ in ks]
    table = _separable_table(A, f.grid)
    coeffs = f.coefficients
    Af = SpectralField(f.grid, phys=_apply_table(table, coeffs))

    def gather(k):
        """Handles on the samples of A P_k f's terms and of P_k(Af); an
        all-zero P_k(Af) has zero samples, made without a transform."""
        terms = [_samples_soon(t) for t in _table_terms(table, _on_support(part, coeffs, k, k))]
        c = _on_support(part, Af.coefficients, k, k)
        return terms, _samples_soon(c) if c.any() else lambda: np.zeros(c.shape)

    norms = []
    for terms, pak in _one_ahead(map(gather, ks)):
        apk = _table_sum(table, (samples() for samples in terms))
        norms.append(l2_norm(SpectralField(f.grid, phys=pak() - apk)))
    return norms


# -- composed-symbol remainder ----------------------------------------------


@dataclass
class SymbolRemainderReport:
    """Three-regime maxima of the composed-symbol remainder at shell k.

    rho_k(x, xi) = c(x, xi) - ring_k(xi) a(x, xi) where c is the exact symbol
    of (ring projection k) о A on the discrete torus.  xi is sampled on the
    continuum along the first axis; the x-transform lives on the lattice.
    regime 1: 2^{k-3} <= |xi| <= 2^{k+3} (maximum normalized by (1+|xi|)^(m-1))
    regime 2: |xi| >= 2^{k+3} (window up to 2^{k+4})
    regime 3: |xi| <= 2^{k-3}
    """

    regime1_normalized: float
    regime2_max: float
    regime3_max: float


def _remainder_max(A: Symbol, grid: GridSpec, k: int, ts: np.ndarray) -> np.ndarray:
    """Max of |rho_k| over grid x, for each sampled xi = t*e1 (t in ts)."""
    xs = tuple(a[np.newaxis, ...] for a in grid.x_axes)
    mags = []
    chunk = max(1, (1 << 23) // max(1, grid.npoints * 16))
    for start in range(0, ts.size, chunk):
        t = ts[start:start + chunk]
        tcol = t.reshape((-1,) + (1,) * grid.dim)
        xis = (tcol,) + tuple(np.zeros_like(tcol) for _ in range(grid.dim - 1))
        a_vals = np.asarray(A.eval_xy(xs, xis), dtype=np.complex128)
        a_vals = np.broadcast_to(a_vals, (t.size,) + grid.shape)
        ahat = _complex_forward(a_vals)
        shifted = _abs_xi(tcol + grid.xi_axes[0], *grid.xi_axes[1:])  # |xi + t e1|
        phi = profile_value(k, shifted) - profile_value(k, np.abs(tcol))
        rho = _complex_inverse(phi * ahat)
        mags.append(np.abs(rho).reshape(t.size, -1).max(axis=1))
    return np.concatenate(mags)


def commutator_symbol_remainder(A: Symbol, grid: GridSpec, k: int) -> SymbolRemainderReport:
    """Measure the three-regime remainder maxima for shell k.

    Sample positions scale with 2^k so that regime-1 maxima are comparable
    across k.  Exact zeros occur when no lattice frequency can bridge the
    ring gap; they count as fully decayed.
    """
    if k < 3:
        raise ValueError("remainder regimes need k >= 3")
    base = 2.0**k
    r1 = base * np.geomspace(1.0 / 8.0, 8.0, 64)
    r2 = base * np.geomspace(8.0, 16.0, 32)
    r3 = base * np.linspace(0.0, 1.0 / 8.0, 64)
    t1, t2, t3 = (np.concatenate([t, -t]) for t in (r1, r2, r3))
    reg1n = _remainder_max(A, grid, k, t1) / (1.0 + np.abs(t1)) ** (A.order - 1.0)
    return SymbolRemainderReport(
        regime1_normalized=float(reg1n.max()),
        regime2_max=float(_remainder_max(A, grid, k, t2).max()),
        regime3_max=float(_remainder_max(A, grid, k, t3).max()),
    )


# -- mapping constants --------------------------------------------------------


def mapping_constants(symbols, part: LPPartition, f: SpectralField, pairs) -> list:
    """For each symbol A, the ratios ||A f||_{s-m,p} / ||f||_{s,p} of the
    dyadic smoothness norms, one per (s, p) pair (NaN where ||f||_{s,p} = 0).

    f is split once for every symbol, and each A f once.
    """
    pairs = list(pairs)
    den = shell_norms(part, f, pairs=pairs)[1]
    out = []
    for A in symbols:
        num = shell_norms(part, apply(A, f), pairs=[(s - A.order, p) for s, p in pairs])[1]
        out.append([math.nan if d == 0.0 else n / d for n, d in zip(num, den)])
    return out
