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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import RegularityParams
from .grid import (SpectralField, _pair_product, _pair_product_fine, field_from_padded,
                   lp_norm, padded_physical)
from .lp import LPPartition, dyadic_norm_sequence, project, project_window
from .symbols import Symbol, apply


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


def split(V: SpectralField, w: SpectralField, k: int, part: LPPartition,
          degree: int = 2) -> ZoneSplit:
    """Zone-wise sums of P_k(P_i V P_j w) with dealiased products.

    By bilinearity the rectangular zones collapse to single window products
    (LL is a rectangle minus its high corner, LH/HL are rectangles, HH a
    short diagonal band), so the cost per zone is a few padded transforms
    instead of one per index pair.
    """
    if V.grid != w.grid:
        raise ValueError("grid mismatch")
    grid = V.grid
    zp = zones(k, part.jmax)
    out_ncomp = 1 if (V.ncomp == w.ncomp and V.ncomp > 1) else max(V.ncomp, w.ncomp)

    def wpad(f, lo, hi):
        return padded_physical(project_window(part, f, lo, hi), degree)

    def finish(fine):
        if fine is None:
            return SpectralField.zeros(grid, out_ncomp)
        return project(part, field_from_padded(grid, fine), k)

    # LL = [k-5, k+7]^2 minus the corner [k+6, k+7]^2
    fine = _pair_product_fine(wpad(V, k - 5, k + 7), wpad(w, k - 5, k + 7))
    fine -= _pair_product_fine(wpad(V, k + 6, k + 7), wpad(w, k + 6, k + 7))
    zone_I = finish(fine)

    # LH = {i <= k-6} x [k-3, k+3]
    zone_II = finish(
        _pair_product_fine(wpad(V, 0, k - 6), wpad(w, k - 3, k + 3))
        if k - 6 >= 0 else None)

    # HL = [k-3, k+3] x {j <= k-6}
    zone_III = finish(
        _pair_product_fine(wpad(V, k - 3, k + 3), wpad(w, 0, k - 6))
        if k - 6 >= 0 else None)

    # HH = {i, j > k+5, |i-j| <= 3}: band over j with per-j i-windows
    fine = None
    for j in range(k + 6, part.jmax + 1):
        lo_i = max(k + 6, j - 3)
        hi_i = min(part.jmax, j + 3)
        if hi_i < lo_i:
            continue
        term = _pair_product_fine(wpad(V, lo_i, hi_i),
                                  padded_physical(project(part, w, j), degree))
        fine = term if fine is None else fine + term
    zone_IV = finish(fine)

    return ZoneSplit(zones=zp, I=zone_I, II=zone_II, III=zone_III, IV=zone_IV)


def product_shell(V: SpectralField, w: SpectralField, k: int, part: LPPartition,
                  degree: int = 2) -> SpectralField:
    """Direct P_k(V w) (dealiased), the fast reference for the exact cover."""
    return project(part, _pair_product(V, w, degree), k)


def all_pairs_shell(V: SpectralField, w: SpectralField, k: int, part: LPPartition,
                    degree: int = 2) -> SpectralField:
    """Brute-force oracle: sum over every index pair of P_k(P_i V P_j w).

    One dealiased product per pair; affordable only at small jmax.
    """
    total = None
    for i in range(part.jmax + 1):
        Pi = project(part, V, i)
        for j in range(part.jmax + 1):
            term = project(part, _pair_product(Pi, project(part, w, j), degree), k)
            total = term if total is None else total + term
    return total


# -- the shell transfer bound for Q u ---------------------------------------


def shell_transfer_ratio(u: SpectralField, Q: Symbol, j: int, r,
                         part: LPPartition, decay: float = 8.0) -> float:
    """||P_j(Q u)||_r over its dominating window bound.

    Bound: 2^(gamma j) sum_{i=j-10}^{j+10} ||P_i u||_r + 2^(-decay*j).
    """
    num = lp_norm(project(part, apply(Q, u), j), r)
    lo, hi = max(0, j - 10), min(part.jmax, j + 10)
    den = 2.0 ** (Q.order * j) * sum(
        dyadic_norm_sequence(part, u, r, lo, hi).values.tolist()
    ) + 2.0 ** (-decay * j)
    return num / den


# -- zone estimates -----------------------------------------------------------


@dataclass
class ZoneEstimate:
    lhs: float
    rhs: float

    @property
    def constant(self) -> float:
        if self.rhs == 0.0:
            return math.nan
        return self.lhs / self.rhs

    def as_dict(self) -> dict:
        c = self.constant
        return {"lhs": self.lhs, "rhs": self.rhs,
                "constant": None if math.isnan(c) else c}


@dataclass
class ZoneEstimateReport:
    """Measured two-sided zone inequalities at shell k.

    Left sides come from the actual zone fields; right sides from delta =
    ||V||_q, the dyadic sequence of u, and the displayed exponents.  Branches
    are picked automatically from the sign conditions r >= q and r >= q'.
    """

    k: int
    delta: float
    branch_iii: str
    branch_iv: str
    low_zones: ZoneEstimate   # I + II combined, as displayed
    high_low: ZoneEstimate    # III
    high_high: ZoneEstimate   # IV
    truncated: bool

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
    params = params.lifted()
    n, alpha, beta, gamma = params.n, params.alpha, params.beta, params.gamma
    sigma, r, q = params.sigma, params.r, params.q
    w = apply(Q, u)
    zs = split(V, w, k, part)
    delta = lp_norm(V, q)
    seq = dyadic_norm_sequence(part, u, r, sigma=sigma)  # one split for du and c_rho
    du, c_rho = seq.values, seq.smoothness
    scale = 2.0 ** ((-alpha + beta + sigma) * k)
    tiny_tail = c_rho * 2.0 ** (-min(100.0 * k, 960.0))

    lhs_low = scale * (lp_norm(zs.I, r) + lp_norm(zs.II, r))
    rhs_low = delta * _weighted_sum(du, sigma, k - 20, k + 20, k, 0.0) + tiny_tail

    if r >= q:
        branch_iii = "r>=q"
        transfer = sigma - gamma - n / r
        rhs_iii = delta * _weighted_sum(du, sigma, 1, k + 10, k, transfer) \
            + c_rho * 2.0 ** (transfer * k)
    else:
        branch_iii = "r<q"
        transfer = sigma - alpha + beta
        rhs_iii = delta * _weighted_sum(du, sigma, 1, k + 10, k, transfer) \
            + c_rho * 2.0 ** ((-alpha + beta + sigma) * k)
    lhs_iii = scale * lp_norm(zs.III, r)

    if 1.0 / r + 1.0 / q <= 1.0:
        branch_iv = "r>=q'"
        transfer = sigma - gamma
    else:
        branch_iv = "r<q'"
        transfer = -alpha + beta + sigma + n * (1.0 - 1.0 / r)
    rhs_iv = delta * _weighted_sum(du, sigma, k - 20, part.jmax, k, transfer) + tiny_tail
    lhs_iv = scale * lp_norm(zs.IV, r)

    return ZoneEstimateReport(
        k=k,
        delta=delta,
        branch_iii=branch_iii,
        branch_iv=branch_iv,
        low_zones=ZoneEstimate(lhs_low, rhs_low),
        high_low=ZoneEstimate(lhs_iii, rhs_iii),
        high_high=ZoneEstimate(lhs_iv, rhs_iv),
        truncated=zs.zones.truncated,
    )
