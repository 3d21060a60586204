"""Ellipticity, parametrix, and the shell/commutator estimate machinery.

Everything here is measurement: the operations compute the two sides of the
operator estimates on concrete fields and report the implied constants or
slopes, rather than proving anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (GridSpec, SpectralField, _forward, _inverse, center_distance,
                   grid_product, lp_norm)
from .lp import (LPPartition, dyadic_norm_sequence, profile_value, project, project_window,
                 sobolev_norms)
from .smooth import ramp_down, ramp_up
from . import symbols as sym_mod
from .symbols import Symbol, apply


# -- shared slope fitting -------------------------------------------------


@dataclass
class SlopeReport:
    """Least-squares fit of log2(values) against shell index."""

    ks: tuple
    values: tuple
    slope: float
    intercept: float
    max_residual: float
    dropped: tuple = ()

    def as_dict(self) -> dict:
        return {
            "ks": list(self.ks),
            "values": [float(v) for v in self.values],
            "slope": self.slope,
            "intercept": self.intercept,
            "max_residual": self.max_residual,
            "dropped": list(self.dropped),
        }


def fit_log2_slope(ks, values, floor: float = 1e-14) -> SlopeReport:
    """Fit log2(values) ~ intercept + slope*k, dropping entries below floor."""
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
        values=tuple(v for _, v in kept),
        slope=float(slope),
        intercept=float(intercept),
        max_residual=resid,
        dropped=dropped,
    )


# -- ellipticity ----------------------------------------------------------


def _x_sample_points(grid: GridSpec, per_axis: int = 16, mask=None):
    """Coarse spatial sample for symbol scans; returns tuple of 1-d arrays."""
    stride = max(1, grid.points_per_axis // per_axis)
    idx_axes = [np.arange(0, grid.points_per_axis, stride) for _ in range(grid.dim)]
    mesh = np.meshgrid(*[2.0 * np.pi * ia / grid.points_per_axis for ia in idx_axes],
                       indexing="ij")
    pts = [m.ravel() for m in mesh]
    if mask is not None:
        keep = mask(*pts)
        pts = [p[keep] for p in pts]
    return tuple(pts)


def _symbol_floor(sym: Symbol, grid: GridSpec, r_min: float, shift: float,
                  x_per_axis: int = 16, x_mask=None) -> float:
    """inf |a(x, xi)| / (shift + |xi|)^m over lattice |xi| >= r_min, sampled x.

    x is scanned on a coarse subgrid (optionally masked), in chunks that
    bound the evaluated block to about 4M entries; multipliers skip the scan.
    """
    r = grid.xi_abs
    keep = r >= r_min
    xi_use = tuple(np.broadcast_to(a, grid.shape)[keep] for a in grid.xi_axes)
    scale = (shift + r[keep]) ** sym.order

    if sym.kind == "multiplier":
        vals = np.abs(np.asarray(sym.xi_func(*xi_use)))
        return float(np.min(vals / scale)) if vals.size else 0.0

    pts = _x_sample_points(grid, x_per_axis, x_mask)
    if pts[0].size == 0:
        raise ValueError("empty x sample")
    best = math.inf
    chunk = max(1, (1 << 22) // max(1, xi_use[0].size))
    for start in range(0, pts[0].size, chunk):
        xs = tuple(p[start:start + chunk, None] for p in pts)
        xis = tuple(x[None, :] for x in xi_use)
        vals = np.abs(sym.eval_xy(xs, xis))
        best = min(best, float(np.min(vals / scale[None, :])))
    return best


def ellipticity_margin(sym: Symbol, grid: GridSpec, C2: float = 4.0,
                       x_per_axis: int = 16, x_mask=None) -> float:
    """inf of |a(x, xi)| / |xi|^m over the lattice with |xi| >= max(C2, 1).

    A positive return certifies ellipticity on the sampled set; 0 means the
    symbol vanishes there.  x is scanned on a coarse subgrid for x-dependent
    symbols.
    """
    m = sym.order
    if m <= 0:
        raise ValueError(f"ellipticity needs positive order, got {m}")
    return _symbol_floor(sym, grid, max(C2, 1.0), 0.0, x_per_axis, x_mask)


# -- elliptic splitting and parametrix -------------------------------------


@dataclass(frozen=True)
class EllipticSplit:
    """L = E + M with E bounded below at high frequency and M dead on the ball."""

    E: Symbol
    M: Symbol
    ball_radius: float
    cutoff: float
    margin: float  # measured inf |e| / (1+|xi|)^alpha over |xi| >= cutoff


def _split_window(radius: float):
    r_out = radius * 1.5

    def w(*xs):
        return ramp_down(center_distance(*xs), radius, r_out)

    return w


def split_elliptic(L: Symbol, grid: GridSpec, C2: float = 4.0,
                   ball_radius: float = 1.0) -> EllipticSplit:
    """Split L into a globally invertible part E and a remainder M.

    E agrees with L on the ball (so M vanishes there) and is glued to the
    frozen-center symbol l(x_c, xi) outside; for x-independent L this gives
    E = L, M = 0 exactly.  Raises if L fails the sampled ellipticity bound.
    """
    ball = ellipticity_margin(
        L, grid, C2,
        x_mask=(lambda *xs: center_distance(*xs) <= ball_radius)
        if L.kind != "multiplier" else None,
    )
    if ball <= 0.0:
        raise ValueError("non-elliptic input: sampled lower bound is 0 on the ball")

    if L.kind == "multiplier":
        E, M = L, sym_mod.zero_symbol(L.order, name=f"{L.name}:remainder")
    else:
        if L.kind == "multiplication":
            terms = ((L.x_func, lambda *xis: np.ones(
                np.broadcast_shapes(*(np.shape(a) for a in xis)))),)
        elif L.kind == "separable":
            terms = L.terms
        else:
            raise ValueError(f"cannot split symbols of kind {L.kind!r}")
        w = _split_window(ball_radius)
        center = (np.pi,) * grid.dim
        e_terms, m_terms = [], []
        for bx, cxi in terms:
            b_c = complex(np.asarray(bx(*center)))

            def b_glued(*xs, _bx=bx, _bc=b_c):
                ww = w(*xs)
                return ww * np.asarray(_bx(*xs)) + (1.0 - ww) * _bc

            def b_rest(*xs, _bx=bx, _bc=b_c):
                return (1.0 - w(*xs)) * (np.asarray(_bx(*xs)) - _bc)

            e_terms.append((b_glued, cxi))
            m_terms.append((b_rest, cxi))
        E = sym_mod.separable(L.order, e_terms, name=f"{L.name}:invertible")
        M = sym_mod.separable(L.order, m_terms, name=f"{L.name}:remainder")

    margin = _symbol_floor(E, grid, max(C2, 0.0), 1.0)
    if margin <= 0.0:
        raise ValueError("splitting failed: glued symbol not bounded below at high frequency")
    return EllipticSplit(E=E, M=M, ball_radius=ball_radius, cutoff=C2, margin=margin)


def low_cutoff(C2: float):
    """Smooth chi(|xi|): exactly 1 for |xi| >= C2, exactly 0 below C2/2."""
    if C2 == 0.0:
        return lambda r: np.ones_like(np.asarray(r, dtype=float))
    return lambda r: ramp_up(r, C2 / 2.0, C2)


def parametrix(E: Symbol, grid: GridSpec, C2: float = 4.0) -> Symbol:
    """First-order approximate inverse: b(x, xi) = chi_{>=C2}(xi) / e(x, xi).

    For multiplier E the composition with E is the identity on |xi| >= C2
    exactly; for x-dependent E the defect gains one order per shell.  The
    full asymptotic series is deliberately not built.
    """
    floor = _symbol_floor(E, grid, max(C2, 1.0), 1.0)
    if floor <= 0.0:
        raise ValueError("parametrix needs a positive lower bound on the symbol")
    chi = low_cutoff(C2)

    def masked_inverse(e, xis):
        mask = chi(np.sqrt(sum(np.asarray(a, dtype=float) ** 2 for a in xis)))
        safe = np.where(e == 0, 1.0, e)
        return np.where(mask != 0.0, mask / safe, 0.0)

    name = f"{E.name}:parametrix"
    if E.kind == "multiplier":
        return sym_mod.multiplier(
            -E.order, lambda *xis: masked_inverse(np.asarray(E.xi_func(*xis)), xis), name)
    return sym_mod.general(
        -E.order, lambda xs, xis: masked_inverse(E.eval_xy(xs, xis), xis), name)


def parametrix_defect_shells(E: Symbol, B: Symbol, part: LPPartition,
                             f: SpectralField, p: float = 2.0):
    """Per-shell norms of (B о E - I) f, normalized by ||f||_p."""
    defect = apply(B, apply(E, f)) - f.without_nyquist()
    base = lp_norm(f, p)
    return [v / base for v in dyadic_norm_sequence(part, defect, p).values.tolist()]


# -- shell estimates --------------------------------------------------------


def ap_shell_ratio(A: Symbol, part: LPPartition, f: SpectralField, k: int, p) -> float:
    """||A P_k f||_p / (2^{km} ||P_{k-1..k+1} f||_p); NaN when undefined."""
    num = lp_norm(apply(A, project(part, f, k)), p)
    den = 2.0 ** (k * A.order) * lp_norm(project_window(part, f, k - 1, k + 1), p)
    if den == 0.0:
        return math.nan
    return num / den


def commutator_shell(A: Symbol, part: LPPartition, f: SpectralField, ks, p) -> list:
    """||(P_k A - A P_k) f||_p for each shell k >= 10 in ks, applying A to f once.

    Frequency multipliers commute with ring projections identically, so the
    multiplier fast path returns exactly 0.0 without touching the field.
    """
    bad = [k for k in ks if not 10 <= k <= part.jmax]
    if bad:
        raise ValueError(f"shell commutator needs 10 <= k <= jmax={part.jmax}, got {bad}")
    if A.is_multiplier:
        return [0.0 for _ in ks]
    Af = apply(A, f)
    return [lp_norm(project(part, Af, k) - apply(A, project(part, f, k)), p) for k in ks]


def commutator_window_bound(A: Symbol, part: LPPartition, f: SpectralField,
                            k: int, p) -> float:
    """Dominating side of the shell-commutator estimate (window + tiny tails).

    2^{k(m-1)} ||P_{k-5<.<k+5} f||_p + 2^{-8k} (||P_cap f||_p
    + sum_j 2^{-8j} ||P_j f||_p), with the rapid-decay exponent fixed at 8.
    """
    N = 8.0
    main = 2.0 ** (k * (A.order - 1.0)) * lp_norm(project_window(part, f, k - 4, k + 4), p)
    norms = dyadic_norm_sequence(part, f, p).values.tolist()
    tail = sum((2.0 ** (-N * j) * v for j, v in enumerate(norms[1:], 1)), norms[0])
    return main + 2.0 ** (-N * k) * tail


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

    k: int
    order: float
    regime1_max: float
    regime1_normalized: float
    regime2_max: float
    regime3_max: float

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "order": self.order,
            "regime1_max": self.regime1_max,
            "regime1_normalized": self.regime1_normalized,
            "regime2_max": self.regime2_max,
            "regime3_max": self.regime3_max,
        }


def _remainder_max(A: Symbol, grid: GridSpec, k: int, ts: np.ndarray) -> tuple:
    """Max of |rho_k| over sampled xi = t*e1 and grid x: raw, and / (1+|t|)^(order-1)."""
    xs = tuple(a[np.newaxis, ...] for a in grid.x_axes)
    best = best_n = 0.0
    chunk = max(1, (1 << 23) // max(1, grid.npoints * 16))
    for start in range(0, ts.size, chunk):
        t = ts[start:start + chunk]
        tcol = t.reshape((-1,) + (1,) * grid.dim)
        xis = (tcol,) + tuple(np.zeros_like(tcol) for _ in range(grid.dim - 1))
        a_vals = np.asarray(A.eval_xy(xs, xis), dtype=np.complex128)
        a_vals = np.broadcast_to(a_vals, (t.size,) + grid.shape)
        ahat = _forward(a_vals)
        shift2 = (tcol + grid.xi_axes[0]) ** 2
        for a in grid.xi_axes[1:]:
            shift2 = shift2 + a * a
        phi = profile_value(k, np.sqrt(shift2)) - profile_value(k, np.abs(tcol))
        rho = _inverse(phi * ahat)
        mags = np.abs(rho).reshape(t.size, -1).max(axis=1)
        if mags.size:
            best = max(best, float(mags.max()))
            best_n = max(best_n, float((mags / (1.0 + np.abs(t)) ** (A.order - 1.0)).max()))
    return best, best_n


def commutator_symbol_remainder(A: Symbol, grid: GridSpec, k: int,
                                samples: int = 64) -> SymbolRemainderReport:
    """Measure the three-regime remainder maxima for shell k.

    Sample positions scale with 2^k so that regime-1 maxima are comparable
    across k.  Exact zeros occur when no lattice frequency can bridge the
    ring gap; they count as fully decayed.
    """
    if k < 3:
        raise ValueError("remainder regimes need k >= 3")
    base = 2.0**k
    r1 = base * np.geomspace(1.0 / 8.0, 8.0, samples)
    r2 = base * np.geomspace(8.0, 16.0, samples // 2)
    r3 = base * np.linspace(0.0, 1.0 / 8.0, samples)
    both = lambda t: np.concatenate([t, -t])
    reg1, reg1n = _remainder_max(A, grid, k, both(r1))
    reg2, _ = _remainder_max(A, grid, k, both(r2))
    reg3, _ = _remainder_max(A, grid, k, both(r3))
    return SymbolRemainderReport(
        k=k, order=A.order, regime1_max=reg1, regime1_normalized=reg1n,
        regime2_max=reg2, regime3_max=reg3,
    )


# -- cutoff commutator -------------------------------------------------------


def cutoff_commutator_order(A: Symbol, eta: SpectralField, f: SpectralField,
                            part: LPPartition, p: float = 2.0,
                            k_lo: int = 2, k_hi: int | None = None) -> SlopeReport:
    """Decay slope of the shells of eta*(A f) - A(eta*f).

    Multiplication by a smooth cutoff commutes with an order-m operator up to
    one order less; on a flat dyadic profile the fitted slope is ~ m-1.
    """
    g = cutoff_commutator_field(A, eta, f)
    k_hi = part.jmax - 1 if k_hi is None else k_hi
    vals = dyadic_norm_sequence(part, g, p, k_lo, k_hi).values
    return fit_log2_slope(range(k_lo, k_hi + 1), vals)


def cutoff_commutator_field(A: Symbol, eta: SpectralField, f: SpectralField) -> SpectralField:
    """The commutator field eta*(A f) - A(eta*f) itself."""
    return grid_product(eta, apply(A, f)) - apply(A, grid_product(eta, f))


# -- mapping constants --------------------------------------------------------


def mapping_constant(A: Symbol, part: LPPartition, f: SpectralField, pairs) -> list:
    """Ratios ||A f||_{s-m,p} / ||f||_{s,p} of the dyadic smoothness norms,
    one per (s, p) pair (NaN where ||f||_{s,p} = 0); f and A f are split once.
    """
    pairs = list(pairs)
    den = sobolev_norms(part, f, pairs)
    num = sobolev_norms(part, apply(A, f), [(s - A.order, p) for s, p in pairs])
    return [math.nan if d == 0.0 else n / d for n, d in zip(num, den)]
