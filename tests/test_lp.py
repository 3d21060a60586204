import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpw.grid import GridSpec, SpectralField, lp_norm, random_field
from lpw.lp import (RING_HI, RING_LO, bernstein_ratio, build_partition,
                    dyadic_norm_sequence, flat_dyadic_field, profile_value,
                    project, project_window, psi, shell_packet, shell_sum_field,
                    sobolev_norm)
from lpw.psido import fit_log2_slope

from test_grid import mode


class TestPartition:
    def test_pointwise_sum_is_one(self, part2):
        assert part2.partition_deviation() <= 1e-14

    def test_sum_at_radius_seven(self, part2):
        # evaluate the analytic profiles off-grid at |xi| = 7
        total = psi(7.0) + sum(profile_value(j, 7.0) for j in range(1, 40))
        assert abs(total - 1.0) <= 1e-14

    def test_ring_supports(self, part2):
        r = part2.grid.xi_abs
        for j in range(1, part2.jmax):  # strict shells; top shell absorbs the tail
            prof = part2.profile(j)
            lo, hi = RING_LO * 2.0**j, RING_HI * 2.0**j
            assert np.all(prof[(r < lo) | (r > hi)] == 0.0)
            assert np.all((prof >= 0.0) & (prof <= 1.0))

    def test_profile_examples(self):
        assert 0.0 < profile_value(3, 8.0) <= 1.0
        assert profile_value(3, 8.0) == 1.0  # ring-center plateau
        assert profile_value(3, 16.0 * 5.0 / 3.0 + 1.0) == 0.0

    def test_neighbor_overlap_only(self, part2):
        for i in range(part2.jmax + 1):
            for j in range(i + 2, part2.jmax + 1):
                assert np.all(part2.profile(i) * part2.profile(j) == 0.0)

    def test_smallest_grid_has_three_shells(self):
        part = build_partition(GridSpec(1, 16))
        assert part.jmax == 3
        assert part.partition_deviation() <= 1e-14


class TestProjection:
    def test_single_mode_scaling(self, part2):
        j = 3
        f = mode(part2.grid, (2**j, 0))
        pf = project(part2, f, j)
        scale = profile_value(j, float(2**j))
        assert lp_norm(pf - scale * f, 2) <= 1e-12

    def test_low_field_vanishes_high(self, part2):
        f = mode(part2.grid, (1, 0)) + mode(part2.grid, (0, -1))
        for j in range(3, part2.jmax + 1):
            assert lp_norm(project(part2, f, j), 2) <= 1e-14

    def test_reconstruction(self, part2):
        f = random_field(part2.grid, 31, mean_zero=False)
        total = project(part2, f, 0)
        for j in range(1, part2.jmax + 1):
            total = total + project(part2, f, j)
        assert lp_norm(total - f, 2) <= 1e-12 * lp_norm(f, 2)

    def test_out_of_range(self, part2):
        f = random_field(part2.grid, 1)
        with pytest.raises(ValueError):
            project(part2, f, part2.jmax + 1)

    def test_range_empty_window(self, part2):
        f = random_field(part2.grid, 32)
        z = project_window(part2, f, 5, 4)  # hi < lo
        assert lp_norm(z, 2) == 0.0

    def test_range_full(self, part2):
        f = random_field(part2.grid, 33, mean_zero=False)
        inner = project_window(part2, f, 1, part2.jmax)
        expect = f - project(part2, f, 0)
        assert lp_norm(inner - expect, 2) <= 1e-12 * lp_norm(f, 2)

    def test_window_reprojection(self, part2):
        f = random_field(part2.grid, 34)
        k = 4
        wide = project_window(part2, f, k - 1, k + 1)
        a = project(part2, wide, k)
        b = project(part2, f, k)
        assert lp_norm(a - b, 2) <= 1e-12 * max(lp_norm(b, 2), 1e-300)


class TestBernstein:
    def test_p_equals_q(self, part2):
        f = shell_packet(part2, 3, 1, coherent=False)
        assert abs(bernstein_ratio(f, 4, 2, 2) - 1.0) <= 1e-12

    def test_pure_mode(self, part2):
        j, n = 3, part2.grid.dim
        f = mode(part2.grid, (5, 0))  # |xi| = 5 <= 2^3
        ratio = bernstein_ratio(f, j, 2, math.inf)
        assert abs(ratio - 2.0 ** (-n * j / 2.0)) <= 1e-10

    def test_support_violation_rejected(self, part2):
        f = mode(part2.grid, (20, 0))
        with pytest.raises(ValueError):
            bernstein_ratio(f, 3, 2, 4)

    def test_random_ratio_bounded(self, part1):
        ratios = []
        for j in range(3, part1.jmax):
            f = shell_packet(part1, j, 40 + j, coherent=False)
            ratios.append(bernstein_ratio(f, j + 1, 2, math.inf))
        assert max(ratios) <= 1.0  # far below the extremal constant

    def test_slope_bound_random_data(self, part1):
        # one-sided: fitted growth never beats the dyadic rate
        p, q, n = 2.0, math.inf, part1.grid.dim
        js = range(3, part1.jmax)
        vals = [lp_norm(shell_packet(part1, j, 50 + j, coherent=False), q)
                / lp_norm(shell_packet(part1, j, 50 + j, coherent=False), p)
                for j in js]
        fit = fit_log2_slope(js, vals)
        assert fit.slope <= n * (1.0 / 2.0) + 0.1


class TestSobolevNorm:
    def test_l2_equivalence(self, part2):
        f = random_field(part2.grid, 55)
        nrm = sobolev_norm(part2, f, 0.0, 2.0)
        l2 = lp_norm(f, 2)
        assert l2 / math.sqrt(2.0) <= nrm <= math.sqrt(2.0) * l2

    def test_single_ring_scaling(self, part2):
        j, s, p = 4, 1.5, 2.0
        f = shell_packet(part2, j, 60, coherent=False)
        nrm = sobolev_norm(part2, f, s, p)
        ref = 2.0 ** (j * s) * lp_norm(f, p)
        assert ref / 4.0 <= nrm <= 4.0 * ref  # within profile-value factor

    def test_zero_field(self, part2):
        assert sobolev_norm(part2, SpectralField.zeros(part2.grid), 1.0, 2.0) == 0.0

    def test_p_range(self, part2):
        f = random_field(part2.grid, 1)
        for bad in (1.0, math.inf):
            with pytest.raises(ValueError):
                sobolev_norm(part2, f, 1.0, bad)

    def test_shell_decay_fact(self, part1):
        # finite smoothness norm forces ||P_k f||_p <= C 2^(-sk) * norm
        s, p = 1.2, 2.0
        f = flat_dyadic_field(part1, 61)
        nrm = sobolev_norm(part1, f, s, p)
        for k in range(1, part1.jmax + 1):
            val = lp_norm(project(part1, f, k), p)
            assert val <= 3.0 * nrm * 2.0 ** (-s * k)

    def test_synthesis_fact(self, part1):
        # shells bounded by 2^-(s+eps)k give a bounded smoothness norm
        s, eps, scale = 1.0, 0.5, 2.5
        shells = {j: scale * 2.0 ** (-(s + eps) * j) for j in range(1, part1.jmax + 1)}
        f = shell_sum_field(part1, shells, 62)
        nrm = sobolev_norm(part1, f, s, 2.0)
        assert nrm <= 10.0 * scale


class TestDyadicSequence:
    def test_single_ring_neighbors_only(self, part2):
        j0 = 4
        f = SpectralField(part2.grid, freq=part2.profile(j0).astype(complex))
        seq = dyadic_norm_sequence(part2, f, 2.0)
        for j, v in enumerate(seq.values):
            if abs(j - j0) <= 1:
                assert v > 0.0
            else:
                assert v == 0.0

    def test_gaussian_spectrum_decay(self, part1):
        f = random_field(part1.grid, 63,
                         radial_profile=lambda r: np.exp(-0.5 * r**2))
        seq = dyadic_norm_sequence(part1, f, 2.0).values
        base = seq[1]
        for j in range(6, part1.jmax + 1):
            assert seq[j] <= base * 2.0 ** (-10.0 * j)

    def test_uniform_boundedness(self, part1):
        for seed in (70, 71, 72):
            f = random_field(part1.grid, seed)
            base = lp_norm(f, 2)
            seq = dyadic_norm_sequence(part1, f, 2.0)
            assert seq.values.max() <= 3.0 * base

    def test_csv_export(self, tmp_path, part2):
        f = random_field(part2.grid, 64)
        seq = dyadic_norm_sequence(part2, f, 2.0)
        path = tmp_path / "seq.csv"
        seq.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["j", "norm", "log2norm"]
        assert len(rows) == part2.jmax + 2
        assert float(rows[1][1]) == seq.values[0]


@given(st.floats(min_value=-3.0, max_value=4.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_smooth_step_range_and_endpoints(t):
    from lpw.smooth import smooth_step
    v = smooth_step(t)
    assert 0.0 <= v <= 1.0
    if t <= 0.0:
        assert v == 0.0
    if t >= 1.0:
        assert v == 1.0


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=300, deadline=None)
def test_profile_telescoping_off_grid(r, jtop):
    # cap + rings up to jtop telescope to the low-pass ramp at scale 2^jtop
    total = psi(r) + sum(profile_value(j, r) for j in range(1, jtop + 1))
    assert abs(total - psi(r / 2.0**jtop)) <= 1e-13
    assert 0.0 <= profile_value(jtop, r) <= 1.0
