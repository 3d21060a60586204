import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpw.iteration import (DecaySequence, IterationParams, convolution_majorant,
                           decay_bound, delta_cap, hypothesis_holds, iterate_map)
from lpw.rng import unit_doubles_at


def oracle_rhs(values, eps, delta):
    """Independent double-loop evaluation of the inequality's right side."""
    K = len(values)
    out = []
    for k in range(K):
        acc = 0.0
        for j in range(K):
            acc += values[j] * 2.0 ** (-2.0 * eps * abs(k - j))
        out.append(2.0 ** (-eps * k) + delta * acc)
    return out


class TestParams:
    def test_delta_window(self):
        cap = delta_cap(1.0)
        assert cap == 0.25
        IterationParams(eps=1.0, delta=0.2)
        with pytest.raises(ValueError):
            IterationParams(eps=1.0, delta=0.25)
        with pytest.raises(ValueError):
            IterationParams(eps=1.0, delta=0.0)
        with pytest.raises(ValueError):
            IterationParams(eps=-1.0, delta=0.1)
        with pytest.raises(ValueError):
            IterationParams(eps=1.0, delta=0.1, S=-2)

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            DecaySequence([1.0, -0.5])
        with pytest.raises(ValueError):
            DecaySequence([math.inf])


class TestHypothesis:
    def test_pure_geometric_holds(self):
        a = DecaySequence(0.5 ** np.arange(40))
        holds, bad = hypothesis_holds(a, IterationParams(eps=1.0, delta=0.2))
        assert holds and bad is None

    def test_flat_sequence_fails_late(self):
        eps, delta = 1.0, 0.01
        a = DecaySequence(np.ones(64))
        holds, bad = hypothesis_holds(a, IterationParams(eps=eps, delta=delta))
        assert not holds
        # closed-form limit of the right side for a constant sequence
        limit = delta * (1.0 + 2.0 / (2.0 ** (2 * eps) - 1.0))
        assert limit < 1.0
        # the first failure appears once 2^(-eps k) has decayed near the limit
        assert 2.0 ** (-eps * (bad - 1)) + limit >= 1.0

    def test_zero_sequence(self):
        a = DecaySequence(np.zeros(16))
        holds, bad = hypothesis_holds(a, IterationParams(eps=0.5, delta=0.1))
        assert holds and bad is None

    def test_start_index(self):
        vals = np.concatenate([[100.0], 0.5 ** np.arange(1, 32)])
        p0 = IterationParams(eps=1.0, delta=0.2, S=0)
        p1 = IterationParams(eps=1.0, delta=0.2, S=1)
        assert not hypothesis_holds(DecaySequence(vals), p0)[0]
        assert hypothesis_holds(DecaySequence(vals), p1)[0]

    def test_matches_double_loop_oracle(self):
        for seed in range(20):
            vals = unit_doubles_at(seed, np.arange(32)) * 0.3
            a = DecaySequence(vals)
            params = IterationParams(eps=1.0, delta=0.1)
            rhs = oracle_rhs(vals.tolist(), 1.0, 0.1)
            expect = all(v <= r for v, r in zip(vals, rhs))
            assert hypothesis_holds(a, params)[0] == expect


class TestDecayBound:
    def test_geometric_exact_one(self):
        a = DecaySequence(0.5 ** np.arange(50))
        assert decay_bound(a, IterationParams(eps=1.0, delta=0.2)) == 1.0
        b = DecaySequence(0.25 ** np.arange(30))
        assert decay_bound(b, IterationParams(eps=2.0, delta=0.3)) == 1.0

    def test_plateau_then_decay(self):
        # flat below the start index, hypothesis-consistent decay after
        S, eps, c = 4, 1.0, 0.9
        vals = np.concatenate([np.full(S, c), 2.0 ** (-eps * np.arange(S, 30))])
        a = DecaySequence(vals)
        params = IterationParams(eps=eps, delta=0.2, S=S)
        M = decay_bound(a, params)
        assert abs(M - 2.0 ** (eps * (S - 1))) <= 1e-12  # ~ c 2^(eps S) / sup

    def test_requires_hypothesis(self):
        a = DecaySequence(np.ones(64))
        with pytest.raises(ValueError):
            decay_bound(a, IterationParams(eps=1.0, delta=0.01))

    def test_scale_free(self):
        # M is normalized by the sup, so admissible rescalings agree
        # (down-scaling preserves admissibility; up-scaling need not)
        vals = 0.5 ** np.arange(40)
        params = IterationParams(eps=0.5, delta=0.1)
        m1 = decay_bound(DecaySequence(vals), params)
        m2 = decay_bound(DecaySequence(vals / 17.0), params)
        assert abs(m1 - m2) <= 1e-12 * m1

    def test_start_window(self):
        vals = np.concatenate([[10.0], 0.5 ** np.arange(1, 40)])
        params = IterationParams(eps=1.0, delta=0.2, S=1)
        assert decay_bound(DecaySequence(vals), params) == 1.0  # sup-normalized
        assert decay_bound(DecaySequence(vals), params, start=1) == 0.1


class TestIterateMap:
    def test_fixed_point_never_increases_bound(self):
        params = IterationParams(eps=1.0, delta=0.2)
        found = 0
        for seed in range(60):
            vals = unit_doubles_at(seed, np.arange(100, 148)) * 2.0 ** (-1.05 * np.arange(48))
            a = DecaySequence(vals)
            if not hypothesis_holds(a, params)[0]:
                continue  # rejection sampling: keep admissible draws
            found += 1
            m0 = decay_bound(a, params)
            b = iterate_map(a, params)
            assert hypothesis_holds(b, params)[0]
            assert decay_bound(b, params) <= m0 + 1e-12
        assert found >= 10

    def test_map_is_decreasing(self):
        params = IterationParams(eps=1.0, delta=0.2)
        a = DecaySequence(0.7 ** np.arange(30))
        b = iterate_map(a, params)
        assert np.all(b.values <= a.values + 1e-15)


class TestMonotonicity:
    # lowering a neighbor entry a_j (j != k) can break the check at k, since
    # it lowers the k-th right side; only the monotone facts below hold
    def test_lowering_own_entry_preserves_check(self):
        params = IterationParams(eps=1.0, delta=0.2)
        vals = 0.5 ** np.arange(20)
        rhs0 = 2.0 ** (-1.0 * 5) + 0.2 * sum(
            v * 2.0 ** (-2.0 * abs(5 - j)) for j, v in enumerate(vals))
        assert vals[5] <= rhs0
        lowered = vals.copy()
        lowered[5] *= 0.5
        rhs1 = 2.0 ** (-1.0 * 5) + 0.2 * sum(
            v * 2.0 ** (-2.0 * abs(5 - j)) for j, v in enumerate(lowered))
        assert lowered[5] <= rhs1

    @given(st.floats(min_value=0.05, max_value=1.0), st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_downscaling_preserves_hypothesis(self, c, seed):
        vals = unit_doubles_at(seed, np.arange(24)) * 2.0 ** (-0.4 * np.arange(24))
        params = IterationParams(eps=0.7, delta=0.15)
        if hypothesis_holds(DecaySequence(vals), params)[0]:
            assert hypothesis_holds(DecaySequence(c * vals), params)[0]

    def test_neighbor_lowering_counterexample(self):
        # documented counterexample to the literal spec claim
        params = IterationParams(eps=1.0, delta=0.2)
        a = DecaySequence([1.0, 0.6875])
        assert hypothesis_holds(a, params)[0]
        b = DecaySequence([0.0, 0.6875])
        holds, bad = hypothesis_holds(b, params)
        assert not holds and bad == 1


class TestConvolutionMajorant:
    def test_zero_sequence_pure_tail(self):
        a = DecaySequence(np.zeros(10))
        out = convolution_majorant(a, theta=0.5, C0delta=0.3, Crho=2.0)
        expect = 2.0 * 2.0 ** (-0.5 * np.arange(10))
        assert np.abs(out.values - expect).max() <= 1e-14

    def test_unit_spike(self):
        vals = np.zeros(12)
        vals[4] = 1.0
        out = convolution_majorant(DecaySequence(vals), theta=0.8, C0delta=0.5,
                                   Crho=0.0)
        k = np.arange(12)
        expect = 0.5 * 2.0 ** (-0.8 * np.abs(k - 4))
        assert np.abs(out.values - expect).max() <= 1e-14

    def test_geometric_closed_form(self):
        theta, rho, K = 0.6, 0.35, 24
        a = DecaySequence(rho ** np.arange(K))
        out = convolution_majorant(a, theta, C0delta=1.0, Crho=0.0)
        t = 2.0 ** (-theta)
        for k in range(K):
            left = sum(rho**j * t ** (k - j) for j in range(0, k + 1))
            right = sum(rho**j * t ** (j - k) for j in range(k + 1, K))
            assert abs(out.values[k] - (left + right)) <= 1e-12 * out.values[k]

    def test_needs_positive_theta(self):
        with pytest.raises(ValueError):
            convolution_majorant(DecaySequence([1.0]), 0.0, 1.0, 1.0)
