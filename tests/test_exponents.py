import math

import pytest
from hypothesis import given, settings, strategies as st

from lpw.exponents import (RegularityParams, bootstrap_exponents, check_hypotheses,
                           check_params, compute_gains, critical_exponent,
                           epsilon_gain, lift_parameters, theta_exponent, zone_transfers)
from lpw.probe import equation_spec


NS4 = RegularityParams(n=4, alpha=2, beta=0, gamma=1, s=1, p=2)
BIHARM4 = RegularityParams(n=4, alpha=4, beta=2, gamma=1, s=2, p=2)
GJMS3 = RegularityParams(n=3, alpha=3, beta=1, gamma=1, s=1.5, p=2)


class TestHypotheses:
    def test_flagship_tuples_pass(self):
        for params in (NS4, BIHARM4, GJMS3):
            assert check_params(params).ok

    @pytest.mark.parametrize("kind, n, params", [
        ("ns", 4, NS4), ("biharmonic", 4, BIHARM4), ("gjms", 3, GJMS3)])
    def test_model_equations_carry_the_flagship_tuples(self, kind, n, params):
        # alpha, beta and gamma are read from the orders of L, P and Q
        assert equation_spec(kind, n=n).params == params

    def test_ns_detail(self):
        # gamma=1 > s-n/p=-1 > alpha-beta-n=-2
        rep = check_hypotheses(4, 2, 0, 1, 1, 2)
        assert rep.ok and rep.violations == ()

    def test_order_gap_boundary(self):
        rep = check_hypotheses(4, 2, 1, 1, 1, 2)
        assert not rep.ok
        assert "order-gap" in rep.violations

    def test_each_violation_named(self):
        cases = {
            "order-gap": (4, 2, 1, 1, 1, 2),
            "smoothness-upper": (4, 2, 0, 1, 2.5, 2),
            "smoothness-lower": (4, 2, 0, 1, 0.5, 2),
            "criticality-upper": (2, 4, 2, 1, 2, 2),
            "criticality-lower": (2, 2, 0, 1, 1, 2),
            "orders-nonnegative": (4, 2, -1, 1, 1, 2),
            "integrability-range": (4, 2, 0, 1, 1, 1),
        }
        for name, args in cases.items():
            assert name in check_hypotheses(*args).violations


class TestCriticalExponent:
    def test_worked_values(self):
        assert critical_exponent(4, 4, 2, 1) == 4.0
        assert critical_exponent(4, 2, 0, 1) == 4.0
        assert abs(critical_exponent(3, 3, 1, 1) - 3.0) < 1e-15

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            critical_exponent(4, 5, 1, 0)  # gap = n gives q = 1
        with pytest.raises(ValueError):
            critical_exponent(4, 2, 1, 1)  # gap 0


class TestLift:
    def test_ns_closed_form(self):
        lifted = lift_parameters(NS4)
        assert lifted.sigma == 1.5
        assert lifted.r == 1.6

    def test_degenerate_lowering(self):
        lifted = lift_parameters(BIHARM4)
        assert lifted.s == 1.75
        assert 1.75 < lifted.sigma < 2.0
        assert abs(lifted.s - lifted.n / lifted.p - (2.0 - 4.0 / 2.0)) <= 1e-12

    def test_scaling_identity(self):
        for params in (NS4, BIHARM4, GJMS3):
            lifted = lift_parameters(params)
            lhs = lifted.sigma - lifted.n / lifted.r
            rhs = lifted.s - lifted.n / lifted.p
            assert abs(lhs - rhs) <= 1e-12

    def test_failing_tuple_rejected(self):
        with pytest.raises(ValueError):
            lift_parameters(RegularityParams(n=4, alpha=2, beta=1, gamma=1, s=1, p=2))


class TestBootstrap:
    def test_ns_first_exponent(self):
        b = bootstrap_exponents(NS4)
        assert abs(b.p1 - 4.0 / 3.0) <= 1e-15
        assert b.p3 == b.p1
        assert b.p5 == NS4.q
        assert b.degenerate == () and b.inconsistent == ()

    def test_p2_exceeds_p1_for_positive_gap(self):
        for params in (NS4, GJMS3):
            b = bootstrap_exponents(params)
            assert b.p2 > b.p1

    def test_supercritical_flagged_inf(self):
        ns2 = RegularityParams(n=2, alpha=2, beta=0, gamma=1, s=1, p=4)
        b = bootstrap_exponents(ns2)
        assert b.p2 == math.inf
        assert "p2" in b.degenerate


class TestGains:
    def test_ns_worked_values_exact(self):
        g = compute_gains(NS4)
        assert g.q == 4.0
        assert g.epsilon == 0.5
        assert g.theta == 0.45

    def test_epsilon_components(self):
        lifted = lift_parameters(NS4)
        eps = epsilon_gain(lifted)
        assert eps == min(1.0, lifted.nu - lifted.sigma,
                          lifted.gamma - lifted.sigma + lifted.n / lifted.r)

    def test_epsilon_vanishes_at_upper_boundary(self):
        base = lift_parameters(NS4)
        squeezed = RegularityParams(n=4, alpha=2, beta=0, gamma=1, s=1, p=2,
                                    sigma=2.0 - 1e-6, r=base.r)
        assert epsilon_gain(squeezed) <= 1e-6 + 1e-12

    def test_epsilon_cap_at_one(self):
        params = RegularityParams(n=8, alpha=4, beta=0, gamma=1, s=1, p=8,
                                  sigma=2.0, r=2.0)
        assert epsilon_gain(params) == 1.0

    def test_theta_below_epsilon(self):
        for params in (NS4, BIHARM4, GJMS3):
            g = compute_gains(params)
            assert 0.0 < g.theta < g.epsilon

    def test_theta_symmetric_terms(self):
        # sigma - gamma equals gamma + n/r - sigma when sigma = gamma + n/(2r)
        n, r, gamma = 4, 2.0, 1.0
        sigma = gamma + n / (2.0 * r)
        assert abs((sigma - gamma) - (gamma + n / r - sigma)) <= 1e-15

    def test_deterministic_reevaluation(self):
        a = compute_gains(NS4).as_dict()
        b = compute_gains(NS4).as_dict()
        assert a == b


@st.composite
def passing_tuples(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    beta = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    gamma = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    gap = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    if gap >= n:  # keep q > 1
        gap = n / 2.0
    alpha = beta + gamma + gap
    s = gamma + draw(st.sampled_from([0.0, 0.25, 0.5])) * (alpha - beta - gamma)
    lo, hi = alpha - beta - n, gamma
    frac = draw(st.sampled_from([0.25, 0.5, 0.75]))
    d = lo + frac * (hi - lo)  # target s - n/p strictly inside the window
    inv_p = (s - d) / n
    if inv_p <= 0 or inv_p >= 1:
        inv_p = 0.5
        s = d + n * inv_p
    params = RegularityParams(n=n, alpha=alpha, beta=beta, gamma=gamma,
                              s=s, p=1.0 / inv_p)
    if not check_params(params).ok:
        raise AssertionError(f"generator produced failing tuple {params}")
    return params


@given(passing_tuples())
@settings(max_examples=200, deadline=None)
def test_lift_repasses_hypotheses(params):
    lifted = lift_parameters(params)
    again = RegularityParams(n=lifted.n, alpha=lifted.alpha, beta=lifted.beta,
                             gamma=lifted.gamma, s=lifted.sigma, p=lifted.r)
    assert check_params(again).ok


@given(passing_tuples())
@settings(max_examples=200, deadline=None)
def test_gains_positive_on_passing_tuples(params):
    g = compute_gains(params)
    assert g.epsilon > 0.0
    assert 0.0 < g.theta < g.epsilon


@given(passing_tuples())
@settings(max_examples=200, deadline=None)
def test_zone_transfers_have_their_signs_and_bound_theta(params):
    t = zone_transfers(params)
    assert t["r>=q"] < 0.0 and t["r<q"] < 0.0
    assert t["r>=q'"] > 0.0 and t["r<q'"] > 0.0
    theta = theta_exponent(params)
    assert all(theta < abs(v) for v in t.values())
