"""Named verification bundles behind the `lpw verify` subcommands.

Each routine measures one family of estimates on seeded data and returns a
JSON-ready dict with a top-level "passed" flag.  The acceptance test suite
calls these directly, so thresholds live here, pinned once.
"""

from __future__ import annotations

import math

import numpy as np

from .exponents import RegularityParams, zone_branches, zone_transfers
from .grid import (GridSpec, _abs2, _coefficient_norm, _modulus_norm, dealiased_product,
                   l2_norm, lp_norm, random_field)
from .lp import (_bernstein_guard, _shell_sum_fields, build_partition, flat_dyadic_field,
                 project, shell_packet)
from .paraproduct import all_pairs_shells, split, zone_estimate_reports
from .psido import (ap_shell_ratios, commutator_shell, commutator_symbol_remainder,
                    fit_log2_slope, mapping_constants)
from .symbols import multiplication, resolve_symbol
from . import symbols as sym


def verify_partition(n: int = 2, N: int = 512, seed: int = 1) -> dict:
    """Partition-of-unity deviation and reconstruction identity.

    Reports carry no timing so that fixed-seed outputs are byte identical;
    runtime budgets are enforced by the acceptance suite around the call.
    """
    grid = GridSpec(n, N)
    part = build_partition(grid)
    deviation = part.partition_deviation()
    f = random_field(grid, seed, mean_zero=False)
    c = f.coefficients.ravel()  # f is scalar
    total = np.zeros_like(c)  # the sum of the projections, each added on its ring's support
    for j in range(part.jmax + 1):
        for sites, values in part.support(j, j):
            total[sites] += c[sites] * values
    total -= c
    recon = _coefficient_norm(total) / l2_norm(f)
    return {
        "name": "partition-of-unity / reconstruction",
        "n": n, "N": N, "jmax": part.jmax,
        "max_deviation": deviation,
        "reconstruction_error": recon,
        "passed": bool(deviation <= 1e-14 and recon <= 1e-12),
    }


def verify_bernstein(n: int = 2, N: int = 512, seed: int = 2) -> dict:
    """Norm-growth slope of focusing shell packets against the dyadic bound.

    ||f_j||_inf / ||f_j||_2 should grow like 2^(nj/2); the normalized
    constants (via the ball of radius 2^(j+1)) must stay within factor 4.
    The shells j = 2..7 must exist, so N >= 256.
    """
    grid = GridSpec(n, N)
    js = list(range(2, 8))
    if grid.jmax < js[-1]:
        raise ValueError(f"N={N} has top shell {grid.jmax}, below the measured shell "
                         f"{js[-1]}; need N >= {2 ** (js[-1] + 1)}")
    part = build_partition(grid)
    ratios, consts = [], []
    for j in js:
        # the guard reads the packet's L^2 norm and bound factor from its
        # coefficients; its samples are transformed here, on the caller,
        # whose memory pool already holds the transform's intermediates
        f = shell_packet(part, j, seed + j, coherent=True)
        total, scale = _bernstein_guard(f, j + 1, 2, math.inf)
        mod = f.modulus()
        del f  # neither the packet nor its samples are held while the next is drawn
        sup = _modulus_norm(mod, math.inf)
        ratios.append(sup / total)
        consts.append(sup / (scale * _modulus_norm(mod, 2)))
    fit = fit_log2_slope(js, ratios)
    spread = max(consts) / min(consts)
    target = n / 2.0
    return {
        "name": "dyadic norm-growth (Bernstein)",
        "n": n, "N": N, "js": js,
        "slope": fit.slope, "target": target, "slope_tolerance": 0.15,
        "constants": consts, "constant_spread": spread,
        "passed": bool(abs(fit.slope - target) <= 0.15 and spread <= 4.0),
    }


_APBOUND_SYMBOLS = (
    "laplacian",
    "bilaplacian",
    "fractional_laplacian:0.75",
    "grad:0",
    "sep:twoplussin:0*pow:2",
)


def verify_apbound(N: int = 8192, seed: int = 3) -> dict:
    """Uniformity in k of ||A P_k f|| / (2^{km} ||window f||) per symbol, over
    shells 2 <= k < jmax, of which a spread needs at least three (N >= 64)."""
    grid = GridSpec(1, N)
    ks = list(range(2, grid.jmax))
    if len(ks) < 3:
        raise ValueError(f"N={N} leaves only {len(ks)} shells from k=2; need >= 3")
    part = build_partition(grid)
    f = random_field(grid, seed)
    symbols = [resolve_symbol(name) for name in _APBOUND_SYMBOLS]
    results = {}
    ok = True
    for name, vals in zip(_APBOUND_SYMBOLS, ap_shell_ratios(symbols, part, f, ks)):
        spread = max(vals) / min(vals)
        results[name] = {"ratios": vals, "spread": spread}
        ok = ok and spread <= 10.0
    return {
        "name": "shell mapping bound",
        "N": N, "ks": ks, "symbols": results,
        "spread_limit": 10.0, "passed": bool(ok),
    }


def _commutator_test_symbols() -> list:
    return [
        ("m0:cos(x)", multiplication(lambda *xs: np.cos(xs[0]), "cosx")),
        ("m1:cos(x)<xi>", resolve_symbol("sep:cos:0*pow:1")),
        ("m2:(2+sin x)<xi>^2", resolve_symbol("sep:twoplussin:0*pow:2")),
    ]


def verify_commutator(N: int = 65536, seed: int = 4) -> dict:
    """Shell commutator decay slopes plus the composed-symbol remainder regimes.

    The commutator is measured for shells k >= 10, so the grid must supply
    at least three such shells for the slope fit to mean anything.
    """
    grid = GridSpec(1, N)
    ks = list(range(10, grid.jmax))
    if len(ks) < 3:
        raise ValueError(f"N={N} leaves only {len(ks)} shells above k=10; need >= 3")
    part = build_partition(grid)
    f = flat_dyadic_field(part, seed)
    ok = True
    slopes = {}
    for label, A in _commutator_test_symbols():
        vals = commutator_shell(A, part, f, ks)
        fit = fit_log2_slope(ks, vals)
        limit = A.order - 1.0 + 0.2
        slopes[label] = {"values": vals, "slope": fit.slope, "limit": limit}
        ok = ok and fit.slope <= limit
    zero = commutator_shell(resolve_symbol("fractional_laplacian:0.75"),
                            part, f, ks[:1])[0]
    ok = ok and zero == 0.0

    remainder = _remainder_regimes(seed)
    ok = ok and remainder["passed"]
    return {
        "name": "shell commutator / composed-symbol remainder",
        "N": N, "ks": ks, "slopes": slopes,
        "multiplier_commutator": zero,
        "remainder": remainder,
        "passed": bool(ok),
    }


def _remainder_regimes(seed: int) -> dict:
    """Regime maxima of the composed-symbol remainder across shells 8..12 at N = 256.

    Regime 2/3 maxima must fall by >= 2^8 per unit shell; values at or below
    the absolute floor count as fully decayed (on a finite lattice the high
    regimes become exactly zero once no lattice frequency bridges the ring).
    Regime-1 normalized maxima must stay within factor 10.
    """
    N, ks = 256, (8, 9, 10, 11, 12)
    grid = GridSpec(1, N)
    A = resolve_symbol("sep:cos:0*pow:1")
    reports = [commutator_symbol_remainder(A, grid, k) for k in ks]
    floor = 1e-13
    reg1 = [rep.regime1_normalized for rep in reports]
    spread = max(reg1) / min(reg1)

    def steps_ok(values):
        for prev, nxt in zip(values, values[1:]):
            if nxt <= floor:
                continue
            if nxt > prev / 2.0**8:
                return False
        return True

    reg2 = [rep.regime2_max for rep in reports]
    reg3 = [rep.regime3_max for rep in reports]
    ok = spread <= 10.0 and steps_ok(reg2) and steps_ok(reg3)
    return {
        "N": N, "ks": list(ks), "symbol": A.name,
        "regime1_normalized": reg1, "regime1_spread": spread,
        "regime2_max": reg2, "regime3_max": reg3,
        "floor": floor, "step_factor": 2.0**8,
        "passed": bool(ok),
    }


def verify_paraproduct(seed: int = 5) -> dict:
    """Zone exact cover (oracle + full-zone grids) and estimate stability."""
    grid = GridSpec(2, 256)
    part = build_partition(grid)
    V = random_field(grid, seed)
    w = random_field(grid, seed + 1)
    scale = l2_norm(V) * lp_norm(w, math.inf)
    Vw = dealiased_product(V, w)  # projected onto each k, as `product_shell` does
    oracle = {}
    ok = True
    ks = (5, 6, 7)
    for k, brute in zip(ks, all_pairs_shells(V, w, ks, part)):
        zs = split(V, w, k, part)
        direct = project(part, Vw, k)
        err_direct = l2_norm(zs.total - direct) / scale
        err_brute = l2_norm(zs.total - brute) / scale
        zp = zs.zones
        oracle[k] = {"vs_direct": err_direct, "vs_bruteforce": err_brute,
                     "disjoint": zp.disjoint(), "truncated": zp.truncated}
        ok = ok and err_direct <= 1e-10 and err_brute <= 1e-10 and zp.disjoint()

    full = {}
    grid1 = GridSpec(1, 1 << 20)
    part1 = build_partition(grid1)
    V1 = random_field(grid1, seed + 2)
    w1 = random_field(grid1, seed + 3)
    scale1 = l2_norm(V1) * lp_norm(w1, math.inf)
    V1w1 = dealiased_product(V1, w1)
    for k in range(10, part1.jmax - 7):
        zs = split(V1, w1, k, part1)
        direct = project(part1, V1w1, k)
        err = l2_norm(zs.total - direct) / scale1
        full[k] = {"vs_direct": err, "truncated": zs.zones.truncated}
        ok = ok and err <= 1e-10 and not zs.zones.truncated

    est = _zone_estimate_stability(seed)
    ok = ok and est["passed"]
    branches = _branch_selection_checks()
    ok = ok and branches["passed"]
    return {
        "name": "paraproduct zones: exact cover / estimates",
        "oracle_grid": {"n": 2, "N": 256, "cases": oracle},
        "full_zone_grid": {"n": 1, "N": 1 << 20, "cases": full},
        "estimates": est,
        "branch_selection": branches,
        "passed": bool(ok),
    }


def _zone_params_r_ge_q() -> RegularityParams:
    # n=1 tuple with r >= q and r >= q'
    return RegularityParams(n=1, alpha=2.0, beta=0.5, gamma=1.0, s=1.1, p=10.0 / 3.0,
                            sigma=1.25, r=1.0 / 0.45)


def _zone_params_r_lt_q() -> RegularityParams:
    # same orders, scaling shifted so r < q and r < q'
    return RegularityParams(n=1, alpha=2.0, beta=0.5, gamma=1.0, s=1.1, p=2.0,
                            sigma=1.25, r=1.0 / 0.65)


def _zone_estimate_stability(seed: int) -> dict:
    """Constant stability across k for dyadic-profile inputs, both branches.

    Zone IV at shell k needs shells above k+5; N = 2^19 gives jmax = 18,
    which holds them for every k in 9..11.
    """
    N, ks = 1 << 19, (9, 10, 11)
    grid = GridSpec(1, N)
    part = build_partition(grid)
    cases = (_zone_params_r_ge_q(), _zone_params_r_lt_q())
    # gamma and sigma are shared by both cases, so one V, one Q and one set
    # of packets serve them; only each u's L^r normalization differs
    gamma, sigma = cases[0].gamma, cases[0].sigma
    V = flat_dyadic_field(part, seed + 23)
    Q = sym.multiplier(gamma, lambda *xis: (1.0 + _abs2(*xis)) ** (gamma / 2.0), "qref")
    us = _shell_sum_fields(part, {j: 2.0 ** (-(sigma + 0.3) * j) for j in range(1, part.jmax + 1)},
                           seed + 11, [params.r for params in cases])
    ok = True
    out = {}
    for params, u in zip(cases, us):
        reports = zone_estimate_reports(V, u, Q, ks, params, part)
        per_zone = {}
        by_zone = zip(*(rep.constants for rep in reports))  # each zone's constants over ks
        for zone, consts in zip(("I+II", "III", "IV"), by_zone):
            consts = [c for c in consts if c is not None]
            spread = max(consts) / min(consts) if consts else math.inf
            per_zone[zone] = {"constants": consts, "spread": spread}
            ok = ok and spread <= 10.0
        first = reports[0]
        out[first.branch_iii] = {"branches": {"III": first.branch_iii, "IV": first.branch_iv},
                                 "zones": per_zone}
    return {"N": N, "ks": list(ks), "cases": out, "passed": bool(ok)}


def _branch_selection_checks() -> dict:
    """The branch flags `zone_branches` picks, and the sign conditions behind
    them, which must hold (arithmetic only)."""
    cases = []
    ok = True
    for params in (_zone_params_r_ge_q(), _zone_params_r_lt_q(),
                   RegularityParams(n=4, alpha=2, beta=0, gamma=1, s=1, p=2,
                                    sigma=1.5, r=1.6),
                   RegularityParams(n=2, alpha=2, beta=0, gamma=1, s=1, p=4,
                                    sigma=1.5, r=2.0)):
        want_iii, want_iv = zone_branches(params)
        t = zone_transfers(params)
        cases.append({
            "n": params.n, "r": params.r, "q": params.q,
            "III": want_iii, "IV": want_iv,
            "sigma-gamma-n/r": t["r>=q"], "-alpha+beta+sigma": t["r<q"],
        })
        ok = ok and t["r>=q"] < 0.0 and t["r<q"] < 0.0
    return {"cases": cases, "passed": bool(ok)}


_MAPPING_SYMBOLS = (
    "fractional_laplacian:0.5",
    "laplacian",
    "sep:cos:0*pow:1",
    "sep:twoplussin:0*pow:2",
)


def verify_mapping(N: int = 4096, seed: int = 6) -> dict:
    """Smoothness-shift mapping property: constants stable across (s, p)."""
    grid = GridSpec(1, N)
    part = build_partition(grid)
    f = random_field(grid, seed, radial_profile=lambda r: 1.0 / (1.0 + r))
    pairs = [(s, p) for s in (0.0, 0.5, 1.0, 2.0) for p in (1.5, 2.0, 3.0)]
    symbols = [resolve_symbol(name) for name in _MAPPING_SYMBOLS]
    results = {}
    ok = True
    for name, consts in zip(_MAPPING_SYMBOLS, mapping_constants(symbols, part, f, pairs)):
        spread = max(consts) / min(consts)
        results[name] = {"constants": consts, "spread": spread}
        ok = ok and spread <= 10.0 and all(math.isfinite(c) for c in consts)
    return {
        "name": "smoothness-shift mapping bound",
        "N": N, "pairs": pairs, "symbols": results,
        "spread_limit": 10.0, "passed": bool(ok),
    }


VERIFIERS = {
    "partition": verify_partition,
    "bernstein": verify_bernstein,
    "apbound": verify_apbound,
    "commutator": verify_commutator,
    "paraproduct": verify_paraproduct,
    "mapping": verify_mapping,
}
