"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` (or let the full suite
include it).  Thresholds are pinned here and in lpw.verify; nothing is
deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest

from lpw.exponents import RegularityParams, check_hypotheses, compute_gains
from lpw.grid import GridSpec, lp_norm, random_field
from lpw.iteration import DecaySequence, IterationParams, decay_bound, hypothesis_holds, iterate_map
from lpw.lp import build_partition
from lpw.paraproduct import all_pairs_shell, product_shell, split
from lpw.probe import equation_spec, run_probe
from lpw.rng import unit_doubles_at
from lpw.verify import verify_apbound, verify_bernstein, verify_partition


def _announce(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status}  {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def paraproduct_report(paraproduct_run):
    return paraproduct_run[0]


def test_criterion_01_partition_reconstruction():
    t0 = time.perf_counter()
    rep = verify_partition(n=2, N=512)
    elapsed = time.perf_counter() - t0
    ok = rep["passed"] and elapsed < 5.0
    _announce(1, "partition / reconstruction", ok,
              f"deviation={rep['max_deviation']:.2e} "
              f"recon={rep['reconstruction_error']:.2e} time={elapsed:.2f}s")


def test_criterion_02_bernstein_growth():
    rep = verify_bernstein(n=2, N=512)
    _announce(2, "dyadic norm growth", rep["passed"],
              f"slope={rep['slope']:.3f} (target {rep['target']}±0.15) "
              f"constant spread={rep['constant_spread']:.2f} (<=4)")


def test_criterion_03_shell_mapping():
    rep = verify_apbound()
    spreads = {k: v["spread"] for k, v in rep["symbols"].items()}
    _announce(3, "shell mapping bound", rep["passed"],
              "spreads=" + ", ".join(f"{k}:{v:.2f}" for k, v in spreads.items()))


def test_criterion_04_commutator_decay(commutator_report):
    rep = commutator_report
    slopes_ok = all(v["slope"] <= v["limit"] for v in rep["slopes"].values())
    ok = slopes_ok and rep["multiplier_commutator"] == 0.0
    _announce(4, "shell commutator order gain", ok,
              "slopes=" + ", ".join(f"{k}:{v['slope']:.2f}<= {v['limit']:.1f}"
                                    for k, v in rep["slopes"].items())
              + f" multiplier={rep['multiplier_commutator']}")


def test_criterion_05_symbol_remainder(commutator_report):
    rem = commutator_report["remainder"]
    _announce(5, "composed-symbol remainder regimes", rem["passed"],
              f"regime1 spread={rem['regime1_spread']:.2f} (<=10), "
              f"regime2 max={max(rem['regime2_max']):.1e}, "
              f"regime3 head={rem['regime3_max'][0]:.1e}")


def test_criterion_06_exact_cover(paraproduct_report):
    # timed brute-force oracle pass at n=2, N=256 (the budgeted check)
    t0 = time.perf_counter()
    grid = GridSpec(2, 256)
    part = build_partition(grid)
    V = random_field(grid, 5)
    w = random_field(grid, 6)
    scale = lp_norm(V, 2) * lp_norm(w, math.inf)
    worst = 0.0
    for k in (5, 6, 7):
        zs = split(V, w, k, part)
        worst = max(worst,
                    lp_norm(zs.total - product_shell(V, w, k, part), 2) / scale,
                    lp_norm(zs.total - all_pairs_shell(V, w, k, part), 2) / scale)
    elapsed = time.perf_counter() - t0
    full = paraproduct_report["full_zone_grid"]["cases"]
    full_worst = max(c["vs_direct"] for c in full.values())
    ok = (worst <= 1e-10 and elapsed < 60.0 and len(full) >= 2
          and full_worst <= 1e-10
          and all(not c["truncated"] for c in full.values()))
    _announce(6, "paraproduct exact cover", ok,
              f"oracle err={worst:.1e} in {elapsed:.1f}s (<60s); "
              f"full zones k={sorted(full)} err={full_worst:.1e}")


def test_criterion_07_zone_estimates(paraproduct_report):
    est = paraproduct_report["estimates"]
    branches = paraproduct_report["branch_selection"]
    spreads = [z["spread"] for case in est["cases"].values()
               for z in case["zones"].values()]
    ok = est["passed"] and branches["passed"]
    _announce(7, "zone estimates", ok,
              f"max constant spread={max(spreads):.2f} (<=10); branches "
              + str({k: v["branches"] for k, v in est["cases"].items()}))


def _hand_hypotheses(n, alpha, beta, gamma, s, p):
    """Independent literal evaluation of the structural inequalities."""
    return (alpha >= 0 and beta >= 0 and gamma >= 0
            and alpha > beta + gamma
            and alpha - beta >= s >= gamma
            and gamma > s - n / p > alpha - beta - n
            and 1.0 < p < math.inf)


def test_criterion_08_exponent_arithmetic():
    gains = compute_gains(RegularityParams(n=4, alpha=2, beta=0, gamma=1, s=1, p=2))
    exact = (gains.q == 4.0 and gains.params.sigma == 1.5 and gains.params.r == 1.6
             and gains.epsilon == 0.5 and gains.theta == 0.45)

    u = unit_doubles_at(2026, np.arange(200))
    agree = 0
    checked = 0
    i = 0
    while checked < 20:
        n = int(2 + math.floor(u[i] * 3)); i += 1
        alpha = 1.0 + 3.0 * u[i]; i += 1
        beta = 2.0 * u[i]; i += 1
        gamma = 1.5 * u[i]; i += 1
        s = 2.5 * u[i]; i += 1
        p = 1.0 + 4.0 * u[i]; i += 1
        ours = check_hypotheses(n, alpha, beta, gamma, s, p).ok
        agree += ours == _hand_hypotheses(n, alpha, beta, gamma, s, p)
        checked += 1
    boundary = [
        (4, 2, 1, 1, 1, 2),          # order gap closes
        (4, 2, 0, 1, 2.5, 2),        # smoothness window upper
        (4, 2, 0, 1, 0.5, 2),        # smoothness window lower
        (2, 4, 2, 1, 2, 2),          # criticality upper hit exactly
        (2, 2, 0, 1, 1, 2),          # criticality lower hit exactly
    ]
    for args in boundary:
        ours = check_hypotheses(*args).ok
        agree += ours == _hand_hypotheses(*args)
        assert not ours
        checked += 1
    ok = exact and agree == checked
    _announce(8, "exponent arithmetic", ok,
              f"q={gains.q} eps={gains.epsilon} theta={gains.theta}; "
              f"checker agreement {agree}/{checked}")


def test_criterion_09_sequence_iteration():
    eps, delta = 1.0, 0.2
    params = IterationParams(eps=eps, delta=delta)
    K = 64
    mismatches = 0
    admissible = 0
    for case in range(1000):
        vals = unit_doubles_at(9000 + case, np.arange(K + 1))
        scale = vals[-1] * 2.0
        a = vals[:K] * scale * 2.0 ** (-(0.5 + vals[-1]) * np.arange(K))
        seq = DecaySequence(a)
        ours, _ = hypothesis_holds(seq, params)
        rhs = [2.0 ** (-eps * k)
               + delta * sum(a[j] * 2.0 ** (-2.0 * eps * abs(k - j))
                             for j in range(K))
               for k in range(K)]
        oracle = all(a[k] <= rhs[k] for k in range(K))
        mismatches += ours != oracle
        if ours:
            admissible += 1
            m0 = decay_bound(seq, params)
            m1 = decay_bound(iterate_map(seq, params), params)
            assert m1 <= m0 + 1e-12
    geometric = decay_bound(DecaySequence(0.5 ** np.arange(K)), params)
    ok = mismatches == 0 and geometric == 1.0 and admissible >= 100
    _announce(9, "sequence iteration bound", ok,
              f"oracle mismatches={mismatches}/1000, geometric M={geometric}, "
              f"admissible draws={admissible}")


def test_criterion_10_end_to_end_probe():
    t0 = time.perf_counter()
    grid = GridSpec(2, 256)
    details = []
    ok = True
    for kind in ("stationary-navier-stokes", "biharmonic4d-toy"):
        eq = equation_spec(kind, n=2, amplitude=1e-2)
        rep = run_probe(eq, grid, seed=7)
        ok = ok and rep.passed and rep.residual <= 1e-10
        ok = ok and rep.decay.epsilon_measured >= rep.gains.epsilon - 0.1
        ok = ok and (rep.bootstrap_recheck is None or rep.bootstrap_recheck.passed)
        details.append(f"{kind}: eps {rep.decay.epsilon_measured:.2f}>="
                       f"{rep.gains.epsilon}-0.1, resid {rep.residual:.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _announce(10, "end-to-end decay probe", ok,
              "; ".join(details) + f"; total {elapsed:.0f}s (<600s)")
