"""Frequency-interaction zones of a product shell and their estimates.

For a target shell k the index pairs (i, j) feeding P_k(V w) through
P_k(P_i V P_j w) are split into the four interaction zones

    LL: k-5 <= i, j <= k+7 and min(i, j) <= k+5
    LH: i < k-5,  k-3 <= j <= k+3
    HL: k-3 <= i <= k+3,  j < k-5
    HH: i, j > k+5, |i - j| <= 3

(taken verbatim; pairs outside the union cannot reach ring k, which the
exact-cover test verifies numerically rather than re-deriving).  The zone
estimates compare both sides of the displayed transfer inequalities and
report the implied constants.

Each zone product runs on the smallest grid that is alias-free on ring k for
its bands, as `grid.alias_free_size` gives it.  The references
`product_shell` and `all_pairs_shell` keep the fixed 3/2 grid, so the exact
cover compares independent computations.  The all-pairs oracle forms every
pair's product on that grid on its own, sums the products there in pair
order and makes one forward transform of the sum per call.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .exponents import RegularityParams, zone_branches, zone_transfers
from .grid import (SpectralField, _inverse, _modulus, _modulus_norm, _norm, _pad_half,
                   _pair_product_fine, _samples_soon, alias_free_size, dealiased_product,
                   field_from_padded, l2_norm, padded_physical)
from .lp import RING_HI, LPPartition, project, project_window, shell_norms
from .symbols import Symbol, _matrix_rows, apply


@dataclass(frozen=True)
class ZonePartition:
    """The four interaction-zone index sets for target shell k."""

    k: int
    jmax: int
    LL: frozenset
    LH: frozenset
    HL: frozenset
    HH: frozenset
    truncated: bool

    @property
    def all_pairs(self) -> frozenset:
        return self.LL | self.LH | self.HL | self.HH

    def disjoint(self) -> bool:
        sets = [self.LL, self.LH, self.HL, self.HH]
        return sum(len(s) for s in sets) == len(self.all_pairs)


def zones(k: int, jmax: int) -> ZonePartition:
    """Literal zone index sets, intersected with the resolvable range [0, jmax].

    Full (untruncated) zones need k >= 10 and k+7 <= jmax; otherwise the sets
    are clipped and the partition is flagged truncated.  The low cap (index 0)
    participates as an ordinary low index.
    """
    rng = range(0, jmax + 1)
    LL = frozenset(
        (i, j) for i in rng for j in rng
        if k - 5 <= i <= k + 7 and k - 5 <= j <= k + 7 and min(i, j) <= k + 5
    )
    LH = frozenset((i, j) for i in rng for j in rng if i < k - 5 and k - 3 <= j <= k + 3)
    HL = frozenset((i, j) for i in rng for j in rng if k - 3 <= i <= k + 3 and j < k - 5)
    HH = frozenset(
        (i, j) for i in rng for j in rng if i > k + 5 and j > k + 5 and abs(i - j) <= 3
    )
    truncated = not (k >= 10 and k + 7 <= jmax)
    return ZonePartition(k=k, jmax=jmax, LL=LL, LH=LH, HL=HL, HH=HH, truncated=truncated)


@dataclass
class ZoneSplit:
    """The four zone-wise contributions to P_k(V w)."""

    zones: ZonePartition
    I: SpectralField
    II: SpectralField
    III: SpectralField
    IV: SpectralField

    @property
    def total(self) -> SpectralField:
        return self.I + self.II + self.III + self.IV


def _window_band(part: LPPartition, hi: int) -> float:
    """Per-axis frequency bound of shells up to hi: min(2^hi RING_HI, N/2).

    The top shell absorbs the tail, so any window reaching jmax fills the
    lattice band N/2.
    """
    return min(2.0**hi * RING_HI, part.grid.points_per_axis / 2)


def _zone_grid(part: LPPartition, hi_v: int, hi_w: int, k: int) -> int:
    """Points per axis for the product of windows ending at hi_v and hi_w, read on ring k."""
    return alias_free_size(part.grid.points_per_axis, _window_band(part, hi_v),
                           _window_band(part, hi_w), _window_band(part, k))


def _zone_windows(k: int, jmax: int) -> tuple:
    """The zones LL, LH, HL, HH of `zones(k, jmax)` as signed window pairs.

    Each zone is a list of (sign, lo_v, hi_v, lo_w, hi_w), every window
    clipped to [0, jmax]: the signed sum of the rectangles [lo_v, hi_v] x
    [lo_w, hi_w] is the zone's index set.  LL is [k-5, k+7]^2 minus its
    corner [k+6, k+7]^2, LH and HL are rectangles, and HH pairs each column j
    with the V window [max(k+6, j-3), min(jmax, j+3)], one window per distinct
    V window: consecutive columns that share it merge into one w window.
    Each zone's first window on any grid is an added one.
    """
    lo, top, mid = max(0, k - 5), min(jmax, k + 7), min(jmax, k + 3)
    LL = [(1, lo, top, lo, top)]
    if k + 6 <= jmax:
        LL.append((-1, k + 6, top, k + 6, top))
    LH = [(1, 0, k - 6, k - 3, mid)] if k >= 6 else []
    HL = [(1, k - 3, mid, 0, k - 6)] if k >= 6 else []
    HH = []
    for j in range(k + 6, jmax + 1):
        v = (max(k + 6, j - 3), min(jmax, j + 3))
        if HH and HH[-1][1:3] == v:
            HH[-1] = (1, *v, HH[-1][3], j)
        else:
            HH.append((1, *v, j, j))
    return LL, LH, HL, HH


def split(V: SpectralField, w: SpectralField, k: int, part: LPPartition) -> ZoneSplit:
    """Zone-wise sums of P_k(P_i V P_j w) with dealiased products.

    By bilinearity each zone is a signed sum of window products, as
    `_zone_windows` lists them, so the cost per zone is a few padded
    transforms instead of one per index pair.

    Each product runs on the grid `alias_free_size` gives for its windows
    read on ring k, where a window [lo, hi] has band B = min(2^hi RING_HI,
    N/2) and ring k has K = min(2^k RING_HI, N/2).  A zone's products that
    share a grid are summed there, one forward transform per grid.

    A product two zones use (LL's corner is HH's one window when jmax is k+6
    or k+7) is made once and kept, unwritten, until its last use, which sums
    into it in place.  The zones run in the order LL, HH, LH, HL, so no kept
    product outlives HH.

    Each new product's padded V window is handed to `_soon` for its inverse
    transform while the w window is gathered and padded here; the w window
    is transformed here beside it on a 1-D lattice and after it on more
    axes, where each inverse makes complex intermediates (irfftn) that two
    in flight would hold at once.
    """
    if V.grid != w.grid:
        raise ValueError("grid mismatch")
    grid = V.grid
    out_ncomp = 1 if (V.ncomp == w.ncomp and V.ncomp > 1) else max(V.ncomp, w.ncomp)
    zone_terms = [[(sign, (lo_v, hi_v, lo_w, hi_w, _zone_grid(part, hi_v, hi_w, k)))
                   for sign, lo_v, hi_v, lo_w, hi_w in windows]
                  for windows in _zone_windows(k, part.jmax)]
    uses = Counter(key for terms in zone_terms for _, key in terms)
    kept = {}  # key -> a product with uses left
    fields = [None] * 4
    for z in (0, 3, 1, 2):  # LL, HH, LH, HL
        fines, coeffs = {}, None  # fines: grid size -> sum of the zone's products on it
        for sign, key in zone_terms[z]:
            lo_v, hi_v, lo_w, hi_w, M = key
            term = kept.pop(key, None)
            if term is None:
                pv = _samples_soon(project_window(part, V, lo_v, hi_v).coefficients, M)
                half = _pad_half(project_window(part, w, lo_w, hi_w).coefficients, M)
                pw = np.empty((w.ncomp,) + (M,) * grid.dim)
                if grid.dim > 1:
                    pv = pv()
                    _inverse(half, out=pw)
                else:
                    _inverse(half, out=pw)
                    pv = pv()
                del half
                term = _pair_product_fine(pv, pw)
                del pv, pw
            uses[key] -= 1
            if uses[key]:
                kept[key] = term
            if M not in fines:
                fines[M] = term.copy() if uses[key] else term
            elif sign > 0:
                fines[M] += term
            else:
                fines[M] -= term
            del term  # no product outlives its sum or its last use
        while fines:  # popped, so no sum outlives its forward transform
            c = field_from_padded(grid, fines.popitem()[1]).coefficients
            coeffs = c if coeffs is None else coeffs + c
            del c
        fields[z] = (SpectralField.zeros(grid, out_ncomp) if coeffs is None
                     else project(part, SpectralField(grid, freq=coeffs), k))
    return ZoneSplit(zones(k, part.jmax), *fields)


def product_shell(V: SpectralField, w: SpectralField, k: int, part: LPPartition) -> SpectralField:
    """Direct P_k(V w) (dealiased on the 3/2 grid), the fast reference for the exact cover."""
    return project(part, dealiased_product(V, w), k)


def all_pairs_shell(V: SpectralField, w: SpectralField, k: int, part: LPPartition) -> SpectralField:
    """The brute-force oracle at one shell k (`all_pairs_shells` for [k])."""
    return all_pairs_shells(V, w, [k], part)[0]


def all_pairs_shells(V: SpectralField, w: SpectralField, ks, part: LPPartition) -> list:
    """Brute-force oracle: for each k in ks, the sum over every index pair of
    P_k(P_i V P_j w).

    Each P_j w and each P_i V is padded once to the 3/2 grid, and every
    pair's product is formed there on its own, P_i V first.  The transform
    is linear, so the products are summed there in pair order, (0, 0),
    (0, 1), ..., into one buffer, which is transformed forward once and
    projected onto every k.  Affordable only at small jmax.
    """
    if V.grid != w.grid:
        raise ValueError("grid mismatch")
    grid, shells = V.grid, range(part.jmax + 1)
    w_fine = [padded_physical(project(part, w, j)) for j in shells]
    total = None
    for i in shells:
        vi = padded_physical(project(part, V, i))
        for wj in w_fine:  # each product is formed in a copy of its w padding
            term = _pair_product_fine(vi, wj.copy())
            if total is None:
                total = term
            else:
                total += term
            del term
        del vi  # each padded P_i V is let go before the next one is made
    pairs = field_from_padded(grid, total)
    return [project(part, pairs, k) for k in ks]


# -- zone estimates -----------------------------------------------------------


@dataclass
class ZoneEstimate:
    lhs: float
    rhs: float

    @property
    def constant(self) -> float | None:
        """lhs / rhs, or None where the right side is 0."""
        return None if self.rhs == 0.0 else self.lhs / self.rhs

    def as_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "constant": self.constant}


@dataclass
class ZoneEstimateReport:
    """Measured two-sided zone inequalities at shell k.

    Left sides come from the actual zone fields; right sides from delta =
    ||V||_q, the dyadic sequence of u, and the displayed exponents.  Branches
    are picked by `zone_branches`.
    """

    k: int
    delta: float
    branch_iii: str
    branch_iv: str
    low_zones: ZoneEstimate   # I + II combined, as displayed
    high_low: ZoneEstimate    # III
    high_high: ZoneEstimate   # IV
    truncated: bool

    @property
    def constants(self) -> tuple:
        """The I+II, III and IV constants (None where the right side is 0)."""
        return (self.low_zones.constant, self.high_low.constant, self.high_high.constant)

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "delta": self.delta,
            "branch_flags": {"III": self.branch_iii, "IV": self.branch_iv},
            "zone": {
                "I+II": self.low_zones.as_dict(),
                "III": self.high_low.as_dict(),
                "IV": self.high_high.as_dict(),
            },
            "truncated": self.truncated,
        }


def _weighted_sum(du: np.ndarray, sigma: float, j_lo: int, j_hi: int,
                  k: int, transfer: float) -> float:
    """sum_j 2^(transfer*(k-j)) * 2^(sigma*j) * du[j] over the clipped range."""
    j_lo, j_hi = max(0, j_lo), min(du.size - 1, j_hi)
    if j_hi < j_lo:
        return 0.0
    js = np.arange(j_lo, j_hi + 1, dtype=float)
    return float(np.sum(2.0 ** (transfer * (k - js) + sigma * js) * du[j_lo:j_hi + 1]))


def zone_estimate_report(V: SpectralField, u: SpectralField, Q: Symbol, k: int,
                         params: RegularityParams, part: LPPartition) -> ZoneEstimateReport:
    """The zone estimate report at one shell k (`zone_estimate_reports` for [k])."""
    return zone_estimate_reports(V, u, Q, [k], params, part)[0]


def zone_estimate_reports(V: SpectralField, u: SpectralField, Q: Symbol, ks,
                          params: RegularityParams, part: LPPartition) -> list:
    """One ZoneEstimateReport per shell k in ks.

    delta = ||V||_q and the one split of u that gives du and c_rho are made
    once and serve every k, as w = Q u does unless `_zone_reports` forms it
    one row at a time.
    """
    params = params.lifted()
    norms, (c_rho,) = shell_norms(part, u, [params.r], [(params.sigma, params.r)])
    return _zone_reports(V, u, Q, ks, params, part, norms[0], c_rho, _norm(V, params.q))


def _zone_norms(V: SpectralField, ws, k: int, part: LPPartition, p) -> tuple:
    """The L^p norms of the zones I, II, III and IV of V against w, and the
    truncation flag: V is split in turn against each field the iterable `ws`
    yields, w whole or its rows, each let go before the next is taken.

    Each split's four zones are reduced at once: at p = 2 their L^2 norms,
    read from the coefficients (`l2_norm`), are combined over the fields;
    otherwise the squares of their sample moduli (`_modulus`) are summed in
    field order, one real array per zone, and the L^p norms read from the
    square roots, which give one field's moduli back bit for bit.  The zone
    fields are not read again, so each nonzero zone is inverse-transformed in
    turn and its coefficients are let go before the next zone's transform.
    """
    # per zone: its fields' L^2 norms, or the sum of their squared moduli
    sums = [[] if p == 2 else None for _ in range(4)]
    for w in ws:
        zs = split(V, w, k, part)
        del w  # a next row is formed with this one gone
        truncated = zs.zones.truncated
        if p == 2:
            for z, f in enumerate((zs.I, zs.II, zs.III, zs.IV)):
                sums[z].append(l2_norm(f))
            continue
        coeffs = [f.coefficients for f in (zs.I, zs.II, zs.III, zs.IV)]
        del zs
        nonzero = {z: cz for z, cz in enumerate(coeffs) if cz.any()}
        del coeffs  # each zone's coefficients are held only until its samples are squared
        for z in list(nonzero):
            sq = _modulus(_inverse(nonzero.pop(z)))
            np.square(sq, out=sq)
            sums[z] = sq if sums[z] is None else np.add(sums[z], sq, out=sums[z])
            del sq
    if p == 2:
        return tuple(math.hypot(*n) for n in sums), truncated
    return tuple(0.0 if sq is None else _modulus_norm(np.sqrt(sq, out=sq), p)
                 for sq in sums), truncated


def _zone_reports(V: SpectralField, u: SpectralField, Q: Symbol, ks,
                  params: RegularityParams, part: LPPartition, du: np.ndarray,
                  c_rho: float, delta: float) -> list:
    """`zone_estimate_reports` for lifted params, given du, the L^r norms of
    u's shells, and c_rho = ||u||_{sigma,r} from a split the caller made, and
    delta = ||V||_q.

    A one-component V against a matrix multiplier Q is split against one row
    of w = Q u at a time (`_zone_norms`), each row formed for its split by
    `apply`'s row step, so w is never whole.  Otherwise w is formed once and
    serves every k.
    """
    sigma, r = params.sigma, params.r
    by_rows = V.ncomp == 1 and Q.kind == "matrix_multiplier"
    w = None if by_rows else apply(Q, u)
    branch_iii, branch_iv = zone_branches(params)
    transfers = zone_transfers(params)
    lift = transfers["r<q"]  # the exponent of each left side's scale 2^(lift k)
    transfer_iii, transfer_iv = transfers[branch_iii], transfers[branch_iv]

    def report(k):  # a function, so each split's zone fields go before the next split
        (norm_i, norm_ii, norm_iii, norm_iv), truncated = _zone_norms(
            V, _matrix_rows(Q, u) if by_rows else (w,), k, part, r)
        scale = 2.0 ** (lift * k)
        tiny_tail = c_rho * 2.0 ** (-min(100.0 * k, 960.0))
        return ZoneEstimateReport(
            k=k,
            delta=delta,
            branch_iii=branch_iii,
            branch_iv=branch_iv,
            low_zones=ZoneEstimate(
                scale * (norm_i + norm_ii),
                delta * _weighted_sum(du, sigma, k - 20, k + 20, k, 0.0) + tiny_tail),
            high_low=ZoneEstimate(
                scale * norm_iii,
                delta * _weighted_sum(du, sigma, 1, k + 10, k, transfer_iii)
                + c_rho * 2.0 ** (transfer_iii * k)),
            high_high=ZoneEstimate(
                scale * norm_iv,
                delta * _weighted_sum(du, sigma, k - 20, part.jmax, k, transfer_iv)
                + tiny_tail),
            truncated=truncated,
        )

    return [report(k) for k in ks]
