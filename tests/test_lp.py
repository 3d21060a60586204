import json
import math
import os
import re
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpw import grid as grid_module, lp, rng
from lpw.grid import GridSpec, SpectralField, l2_norm, lp_norm, random_field
from lpw.lp import (RING_HI, RING_LO, bernstein_ratio, build_partition,
                    flat_dyadic_field, profile_value, project, project_window, psi,
                    shell_norms, shell_packet, shell_sum_field)
from lpw.probe import equation_spec, run_probe
from lpw.psido import fit_log2_slope
from lpw.rng import complex_samples
from lpw.verify import verify_bernstein, verify_partition

from test_grid import hermitian, mode


def _dense_profiles(grid):
    """The partition as jmax + 1 dense telescoped profiles on the whole
    lattice: the reference its support storage reproduces bit for bit."""
    J, r = grid.jmax, grid.xi_abs
    low = psi(r)
    profiles = [low]
    for j in range(1, J):
        prev, low = low, psi(r / 2.0**j)
        profiles.append(low - prev)
    profiles.append(1.0 - low)
    return profiles


def _bits(a):
    """The raw bits of a float or complex array, so that equality also
    compares the signs of zeros."""
    return np.ascontiguousarray(a).view(np.uint64)


def _whole_support(part, lo, hi):
    """(sites, values) of the profile sum over shells lo..hi as one slice of
    the partition's storage: the reference its block walk reproduces."""
    a, b = part.starts[max(lo - 1, 0)], part.starts[hi + 1]
    head, tail = part.starts[lo] - a, part.starts[hi] - a
    values = part.weight[a:b].copy()
    values[:head] = 1.0 - values[:head]
    values[head:tail] = 1.0
    return part.sites[a:b], values


def _traced_peak(fn, *args):
    """The tracemalloc peak of fn(*args), after one untraced call that starts
    the helper thread and fills the caches."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("dim,N", [(1, 8192), (2, 128), (3, 32)])
    def test_profiles_equal_analytic_rings(self, dim, N):
        # the telescoped build (each psi(|xi|/2^j) evaluated once) gives the
        # analytic rings of profile_value bit for bit, and the top shell
        # 1 - psi(|xi|/2^(J-1))
        part = build_partition(GridSpec(dim, N))
        r, J = part.grid.xi_abs, part.jmax
        want = [profile_value(j, r) for j in range(J)] + [1.0 - psi(r / 2.0 ** (J - 1))]
        assert len(part.profiles) == len(want)
        for got, ring in zip(part.profiles, want):
            assert np.array_equal(got, ring)

    @pytest.mark.parametrize("dim,N", [(1, 1 << 18), (2, 512)])
    def test_storage_is_two_words_per_point(self, dim, N):
        # what a build leaves allocated, the grid's cached |xi| aside: a site
        # index and a value per lattice point and one offset per lower shell,
        # where jmax + 1 dense profiles take 8 (jmax + 1) bytes a point
        grid = GridSpec(dim, N)
        grid.xi_abs
        tracemalloc.start()
        try:
            part = build_partition(grid)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 16 * grid.npoints + 8 * (part.jmax + 2) + 4096

    @pytest.mark.parametrize("dim,N", [(1, 256), (2, 64), (3, 16)])
    def test_blocks_equal_the_whole_lattice_build(self, monkeypatch, dim, N):
        # the psi loop over blocks of 7 points and the per-shell counting
        # order give the whole-lattice loop's values and argsort's order
        grid = GridSpec(dim, N)
        J, r = grid.jmax, grid.xi_abs.ravel()
        lower, weight, idx = np.full(r.size, J, dtype=np.int8), np.ones(r.size), np.arange(r.size)
        for j in range(J - 1, -1, -1):
            low = psi(r[idx] / 2.0**j)
            idx = idx[low > 0.0]
            lower[idx], weight[idx] = j, low[low > 0.0]
        sites = np.argsort(lower, kind="stable")
        starts = np.concatenate([[0], np.cumsum(np.bincount(lower, minlength=J + 1))])
        monkeypatch.setattr(rng, "_BLOCK", 7)
        part = build_partition(grid)
        assert np.array_equal(part.sites, sites) and np.array_equal(part.starts, starts)
        assert np.array_equal(_bits(part.weight), _bits(weight[sites]))

    def test_build_peak_memory(self):
        # besides the 4 MiB it keeps, a build holds the lower shells (one
        # byte a point) and the unsorted weights; 13.1 MiB when the psi loop
        # and the argsort ran on the whole lattice
        grid = GridSpec(2, 512)
        grid.xi_abs, grid.nyquist_mask
        tracemalloc.start()
        try:
            build_partition(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 << 20

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
        for j in (-1, part2.jmax + 1):
            with pytest.raises(ValueError, match=f"shell index {j} out of range"):
                project(part2, f, j)

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


class TestShellPacket:
    @pytest.mark.parametrize("dim,N,ncomp", [(1, 256, 1), (2, 64, 2), (3, 16, 1)])
    def test_equals_whole_lattice_draw(self, dim, N, ncomp):
        # the ring-site draw gives the coefficients of the whole-lattice one
        # times the dense reference profile, whose first component is the
        # same for any number of components
        part = build_partition(GridSpec(dim, N))
        grid, profiles = part.grid, _dense_profiles(part.grid)
        raw = complex_samples(9, ncomp * grid.npoints).reshape((ncomp,) + grid.shape)[:1]
        for j in range(part.jmax + 1):
            for coherent in (True, False):
                c = (1.0 + 0.5 * raw.real if coherent else raw) * profiles[j]
                c[:, grid.nyquist_mask] = 0.0
                c = hermitian(c)
                got = shell_packet(part, j, 9, coherent=coherent)
                assert np.array_equal(got.coefficients, c), (j, coherent)

    @pytest.mark.parametrize("dim,N", [(1, 4096), (2, 64)])
    def test_sum_fields_equal_dense_profile_draws(self, dim, N):
        # the packet sums equal the ones built from whole-lattice draws times
        # the dense reference profiles, each normalized packet added to a
        # whole-lattice total
        part = build_partition(GridSpec(dim, N))
        grid, profiles = part.grid, _dense_profiles(part.grid)

        def dense_sum(scales, seed, norm_p):
            total = np.zeros((1,) + grid.shape, dtype=np.complex128)
            for j, scale in scales.items():
                raw = complex_samples(seed + 101 * j, grid.npoints).reshape(grid.shape)
                c = raw * profiles[j]
                c[grid.nyquist_mask] = 0.0
                pkt = SpectralField(grid, freq=hermitian(c[np.newaxis]))
                nrm = l2_norm(pkt) if norm_p == 2 else lp_norm(pkt, norm_p)
                total += (scale / nrm) * pkt.coefficients
            return total

        scales = {j: 2.0 ** -j for j in range(part.jmax + 1)}
        got = [flat_dyadic_field(part, 3), shell_sum_field(part, scales, 4, norm_p=3.0),
               *lp._shell_sum_fields(part, scales, 4, (2.0, 3.0, 1.5))]
        want = [dense_sum({j: 1.0 for j in range(1, part.jmax + 1)}, 3, 2.0),
                dense_sum(scales, 4, 3.0), *(dense_sum(scales, 4, p) for p in (2.0, 3.0, 1.5))]
        for a, b in zip(got, want):
            assert np.array_equal(_bits(a.coefficients), _bits(b))

    def test_sum_fields_transform_each_packet_once(self, monkeypatch):
        # one modulus per packet serves every exponent that is not 2
        part = build_partition(GridSpec(1, 4096))
        scales = {j: 2.0 ** -j for j in range(1, part.jmax + 1)}
        calls = []
        monkeypatch.setattr(np.fft, "irfftn", lambda *a, _f=np.fft.irfftn, **k: calls.append(1)
                            or _f(*a, **k))
        lp._shell_sum_fields(part, scales, 4, (2.0, 3.0, 1.5))
        assert len(calls) == len(scales)
        calls.clear()
        lp._shell_sum_fields(part, scales, 4, (2.0,))
        assert calls == []


class TestSupportBlocks:
    """Every support reader walks `LPPartition.support` in pieces of at most
    `rng._BLOCK` sites, with the bits of the whole-support reads."""

    def test_projection_equals_the_whole_support_gather(self):
        # a window over all but the lowest shells of 2^18 points spans 8 blocks
        part = build_partition(GridSpec(1, 1 << 18))
        sites, values = _whole_support(part, 5, 17)
        assert sites.size > 6 * rng._BLOCK
        coeffs = random_field(part.grid, 5, ncomp=2).coefficients
        flat = coeffs.reshape(2, -1)
        want = np.zeros_like(flat)
        want[:, sites] = flat[:, sites] * values
        got = lp._on_support(part, coeffs, 5, 17)
        assert np.array_equal(_bits(got), _bits(want.reshape(coeffs.shape)))
        assert all(s.size <= rng._BLOCK for s, _ in part.support(5, 17))

    def test_projection_holds_only_its_output(self):
        # 4 MiB of output and 0.88 MiB of pieces; 10.13 MiB in all when the
        # support was read whole
        part = build_partition(GridSpec(1, 1 << 18))
        coeffs = random_field(part.grid, 6).coefficients
        assert _traced_peak(lp._on_support, part, coeffs, 5, 17) <= coeffs.nbytes + (3 << 19)

    @pytest.mark.parametrize("coherent", [True, False], ids=["coherent", "generic"])
    def test_packet_equals_the_whole_support_draw(self, coherent):
        # ring 7 of 512^2 has more than one block of sites
        part = build_partition(GridSpec(2, 512))
        grid = part.grid
        sites, values = _whole_support(part, 7, 7)
        assert sites.size > rng._BLOCK
        keep = (values != 0.0) & ~grid.nyquist_mask.ravel()[sites]
        sites, values = sites[keep], values[keep]
        re = 2.0 * rng.unit_doubles_at(11, 2 * sites) - 1.0
        raw = (1.0 + 0.5 * re if coherent
               else re + 1j * (2.0 * rng.unit_doubles_at(11, 2 * sites + 1) - 1.0))
        want = np.zeros(grid.npoints, dtype=np.complex128)
        want[sites] = raw * values
        got = shell_packet(part, 7, 11, coherent=coherent).coefficients
        assert np.array_equal(_bits(got), _bits(hermitian(want.reshape((1,) + grid.shape))))

    @pytest.mark.parametrize("bundle,bound", [
        # 22.77 and 22.44 MiB when each support was read whole
        (verify_partition, 16 << 20),
        (verify_bernstein, 19 << 20),
    ], ids=["partition", "bernstein"])
    def test_bundle_peak_memory(self, bundle, bound):
        assert _traced_peak(bundle) <= bound


class TestBernstein:
    def test_p_equals_q(self, part2):
        f = shell_packet(part2, 3, 1, coherent=False)
        assert abs(bernstein_ratio(f, 4, 2, 2) - 1.0) <= 1e-12

    def test_pure_mode(self, part2):
        # cos(5 x_0): ||f||_inf = 1 and ||f||_2 = 1/sqrt(2)
        j, n = 3, part2.grid.dim
        f = mode(part2.grid, (5, 0))  # |xi| = 5 <= 2^3
        ratio = bernstein_ratio(f, j, 2, math.inf)
        assert abs(ratio - math.sqrt(2.0) * 2.0 ** (-n * j / 2.0)) <= 1e-10

    def test_support_violation_rejected(self, part2):
        f = mode(part2.grid, (20, 0))
        with pytest.raises(ValueError):
            bernstein_ratio(f, 3, 2, 4)

    @staticmethod
    def _two_component(grid, outside_comp, outside_amp):
        """A 2-component field with both components on |xi| = 1, plus one
        coefficient outside the ball of radius 8, in component outside_comp."""
        c = np.zeros((2,) + grid.shape, dtype=complex)
        c[:, 1, 0] = 1.0
        c[outside_comp, 20, 0] = outside_amp
        return SpectralField(grid, freq=c)

    @pytest.mark.parametrize("comp", [0, 1])
    def test_leak_in_a_later_block_rejected(self, monkeypatch, comp):
        # the outside is scanned block by block; a leak found in a later
        # block, in either component, is gathered whole and reported alike
        grid = GridSpec(2, 512)
        c = np.zeros((2,) + grid.shape, dtype=complex)
        c[:, 1, 0] = 1.0
        c[comp, 300, 0] = 1e-3  # |xi| = 212, in the fifth of 8 blocks
        summed = []
        monkeypatch.setattr(lp, "_coefficient_norm",
                            lambda c, _norm=lp._coefficient_norm: summed.append(c) or _norm(c))
        ratio = 1e-3 / math.sqrt(2.0 + 1e-6)
        with pytest.raises(ValueError, match=re.escape(
                f"frequency support exceeds ball of radius 2^3 (leak {ratio:.2e})")):
            bernstein_ratio(SpectralField(grid, freq=c), 3, 2, math.inf)
        assert np.array_equal(summed[0], c[:, grid.xi_abs > 8.0])
        # with no leak, nothing outside is gathered: only the total is summed
        c[comp, 300, 0] = 0.0
        summed.clear()
        assert bernstein_ratio(SpectralField(grid, freq=c), 3, 2, math.inf) > 0.0
        assert len(summed) == 1 and summed[0] is c

    @pytest.mark.parametrize("comp", [0, 1])
    def test_leak_in_either_component_rejected(self, part2, comp):
        f = self._two_component(part2.grid, comp, 1e-3)
        with pytest.raises(ValueError, match="exceeds ball of radius 2\\^3"):
            bernstein_ratio(f, 3, 2, math.inf)

    def test_leak_below_the_threshold_accepted(self, part2):
        # the outside norm is 1e-14 of the total: ||c_in|| = sqrt(2)
        f = self._two_component(part2.grid, 1, 1e-14 * math.sqrt(2.0))
        assert bernstein_ratio(f, 3, 2, math.inf) > 0.0

    def test_leak_gathered_in_lattice_order(self, monkeypatch, part2):
        # the guard's flat gather takes the outside coefficients in the
        # order c[:, outside] does, so the leak is summed alike
        f = random_field(part2.grid, 63, ncomp=2)
        summed = []
        monkeypatch.setattr(lp, "_coefficient_norm",
                            lambda c, _norm=lp._coefficient_norm: summed.append(c) or _norm(c))
        with pytest.raises(ValueError, match="exceeds ball"):
            bernstein_ratio(f, 3, 2, math.inf)
        c = f.coefficients
        assert np.array_equal(_bits(summed[0]), _bits(c[:, part2.grid.xi_abs > 8.0]))

    @pytest.mark.parametrize("seed", [2, 3])
    def test_bundle_equals_the_inline_bundle(self, inline_transforms, seed):
        # each 512^2 packet is transformed on the helper, in its own array
        got = json.dumps(verify_bernstein(seed=seed))
        inline_transforms()
        assert got == json.dumps(verify_bernstein(seed=seed))

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
        nrm = shell_norms(part2, f, pairs=[(0.0, 2.0)])[1][0]
        l2 = lp_norm(f, 2)
        assert l2 / math.sqrt(2.0) <= nrm <= math.sqrt(2.0) * l2

    def test_single_ring_scaling(self, part2):
        j, s, p = 4, 1.5, 2.0
        f = shell_packet(part2, j, 60, coherent=False)
        nrm = shell_norms(part2, f, pairs=[(s, p)])[1][0]
        ref = 2.0 ** (j * s) * lp_norm(f, p)
        assert ref / 4.0 <= nrm <= 4.0 * ref  # within profile-value factor

    def test_zero_field(self, part2):
        zero = SpectralField.zeros(part2.grid)
        assert shell_norms(part2, zero, pairs=[(1.0, 2.0)])[1] == [0.0]

    def test_p_range(self, part2):
        f = random_field(part2.grid, 1)
        for bad in (1.0, math.inf):
            with pytest.raises(ValueError):
                shell_norms(part2, f, pairs=[(1.0, bad)])[1]

    def test_shell_decay_fact(self, part1):
        # finite smoothness norm forces ||P_k f||_p <= C 2^(-sk) * norm
        s, p = 1.2, 2.0
        f = flat_dyadic_field(part1, 61)
        nrm = shell_norms(part1, f, pairs=[(s, p)])[1][0]
        for k in range(1, part1.jmax + 1):
            val = lp_norm(project(part1, f, k), p)
            assert val <= 3.0 * nrm * 2.0 ** (-s * k)

    def test_synthesis_fact(self, part1):
        # shells bounded by 2^-(s+eps)k give a bounded smoothness norm
        s, eps, scale = 1.0, 0.5, 2.5
        shells = {j: scale * 2.0 ** (-(s + eps) * j) for j in range(1, part1.jmax + 1)}
        f = shell_sum_field(part1, shells, 62)
        nrm = shell_norms(part1, f, pairs=[(s, 2.0)])[1][0]
        assert nrm <= 10.0 * scale


def _split_bytes(part, f, rs, pairs):
    norms, smoothness = shell_norms(part, f, rs, pairs)
    return norms.tobytes() + np.array(smoothness).tobytes()


class TestPipelinedSplit:
    RS = [2.5, 2.0, math.inf, 1.0]
    PAIRS = [(0.5, 2.5), (1.0, 2.0)]

    @pytest.mark.parametrize("dim,N,ncomp,band,rs,pairs", [
        (1, 1 << 16, 1, None, RS, PAIRS),     # transformed on the helper thread
        (1, 4096, 1, None, RS, PAIRS),        # transformed inline
        (2, 256, 2, None, RS, PAIRS),
        (2, 256, 1, None, [2.0], [(1.0, 2.0)]),  # exponent 2 only: no transform
        (1, 1 << 16, 1, 40.0, RS, PAIRS),     # shells above the band are empty
    ], ids=["helper", "inline", "two-components", "exponent-2", "empty-shells"])
    def test_bits_equal_the_inline_split(self, inline_transforms, dim, N, ncomp, band, rs,
                                         pairs):
        part = build_partition(GridSpec(dim, N))
        f = random_field(part.grid, 31, ncomp=ncomp, band=band)
        got = _split_bytes(part, f, rs, pairs)
        inline_transforms()
        assert got == _split_bytes(part, f, rs, pairs)

    def test_probe_bits_equal_the_inline_split(self, inline_transforms):
        eq, grid = equation_spec("biharmonic", n=2), GridSpec(2, 256)
        got = json.dumps(run_probe(eq, grid, seed=9).as_dict())
        inline_transforms()
        assert got == json.dumps(run_probe(eq, grid, seed=9).as_dict())

    @pytest.mark.parametrize("N,helper", [(1 << 16, True), (4096, False)])
    def test_helper_runs_only_from_2_14_points(self, monkeypatch, N, helper):
        threads = []

        def recording(coeffs, out=None, _inverse=grid_module._inverse):
            threads.append(threading.current_thread() is threading.main_thread())
            return _inverse(coeffs, out=out)

        part = build_partition(GridSpec(1, N))
        f = random_field(part.grid, 32)
        monkeypatch.setattr(lp, "_inverse", recording)
        shell_norms(part, f, [2.5])
        assert len(threads) == part.jmax + 1 and set(threads) == {not helper}

    @pytest.mark.parametrize("N", [1 << 16, 4096])
    def test_transform_error_reaches_the_caller(self, monkeypatch, N):
        class Boom(Exception):
            pass

        def failing(coeffs, out=None):
            raise Boom

        part = build_partition(GridSpec(1, N))
        f = random_field(part.grid, 33)
        monkeypatch.setattr(lp, "_inverse", failing)
        with pytest.raises(Boom):
            shell_norms(part, f, [2.5])
        monkeypatch.undo()
        assert np.all(np.isfinite(shell_norms(part, f, [2.5])[0]))

    def test_helper_transforms_under_the_callers_errstate(self):
        # shells from j = 8 hold over 180 modes of 1e306, whose sum overflows
        part = build_partition(GridSpec(1, 1 << 16))
        c = np.zeros((1, part.grid.npoints), dtype=complex)
        c[0, 1:2000] = c[0, -1999:] = 1e306
        f = SpectralField(part.grid, freq=c)
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError, match="irfft"):
                shell_norms(part, f, [math.inf])

    def test_forked_child_starts_its_own_helper(self):
        # a child forked after the helper started has no helper thread: a
        # hand-off to the parent's would never run
        part = build_partition(GridSpec(1, 1 << 16))
        f = random_field(part.grid, 36)
        want = shell_norms(part, f, [2.5])[0]
        pid = os.fork()
        if pid == 0:
            same = False
            try:
                same = np.array_equal(shell_norms(part, f, [2.5])[0], want)
            finally:
                os._exit(0 if same else 1)
        for _ in range(600):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done and os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.parametrize("bad", [0.5, math.nan, -math.inf])
    def test_exponents_checked_before_any_shell(self, monkeypatch, part1, bad):
        gathered = []
        monkeypatch.setattr(lp, "_on_support", lambda *args: gathered.append(args))
        with pytest.raises(ValueError, match="p must be >= 1"):
            shell_norms(part1, random_field(part1.grid, 34), [2.0, bad])
        assert gathered == []

    @pytest.mark.parametrize("dim,N,ncomp,bound", [
        # 7.00 and 3.50 MiB when each shell was transformed out of place with
        # none ahead; a second shell ahead would add 2 and 1 MiB
        (2, 256, 2, 6.75 * 2**20),
        (1, 1 << 16, 1, 4.25 * 2**20),
    ], ids=["2,256x2", "1,65536"])
    def test_peak_memory(self, dim, N, ncomp, bound):
        part = build_partition(GridSpec(dim, N))
        f = random_field(part.grid, 35, ncomp=ncomp)
        shell_norms(part, f, [2.5], [(0.5, 2.5)])  # the helper thread started
        tracemalloc.start()
        try:
            shell_norms(part, f, [2.5], [(0.5, 2.5)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


@pytest.mark.parametrize("p", [2.5, math.inf, 1.0])
def test_zeros_reduce_to_0_without_a_power(monkeypatch, part1, p):
    # numpy's power takes 3 to 4 times as long on zeros as on other samples
    reduced = []

    def counting(mod, q, _fn=grid_module._modulus_norm):
        reduced.append(mod.size)
        return _fn(mod, q)

    for module in (grid_module, lp):
        monkeypatch.setattr(module, "_modulus_norm", counting)
    assert lp_norm(SpectralField.zeros(part1.grid, 2), p) == 0.0
    assert reduced == []
    f = random_field(part1.grid, 37, band=20.0)  # shells 6 and 7 are empty
    norms = shell_norms(part1, f, [p])[0][0]
    nonempty = [project(part1, f, j).coefficients.any() for j in range(part1.jmax + 1)]
    assert nonempty == [True] * 6 + [False] * 2
    assert len(reduced) == 6 and list(norms[6:]) == [0.0, 0.0]


class TestDyadicSequence:
    def test_single_ring_neighbors_only(self, part2):
        j0 = 4
        f = SpectralField(part2.grid, freq=part2.profile(j0).astype(complex))
        seq = shell_norms(part2, f, [2.0])[0][0]
        for j, v in enumerate(seq):
            if abs(j - j0) <= 1:
                assert v > 0.0
            else:
                assert v == 0.0

    def test_gaussian_spectrum_decay(self, part1):
        f = random_field(part1.grid, 63,
                         radial_profile=lambda r: np.exp(-0.5 * r**2))
        seq = shell_norms(part1, f, [2.0])[0][0]
        base = seq[1]
        for j in range(6, part1.jmax + 1):
            assert seq[j] <= base * 2.0 ** (-10.0 * j)

    def test_uniform_boundedness(self, part1):
        for seed in (70, 71, 72):
            f = random_field(part1.grid, seed)
            base = lp_norm(f, 2)
            seq = shell_norms(part1, f, [2.0])[0][0]
            assert seq.max() <= 3.0 * base


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-13 * want if want > 0.0 else got == 0.0


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_l2_shell_norms_match_grid_means(data):
    # exponent 2 is read from the coefficients (Parseval); the grid means are
    # the definitions.  A band below N/2 leaves the top shells empty, and
    # band 0 leaves the whole (mean-zero) field empty.
    dim = data.draw(st.integers(1, 3))
    N = data.draw(st.sampled_from((16,) if dim == 3 else (16, 32)))
    part = build_partition(GridSpec(dim, N))
    ncomp = data.draw(st.integers(1, 2))
    band = data.draw(st.one_of(st.none(), st.floats(0.0, N / 2)))
    f = random_field(part.grid, data.draw(st.integers(0, 10_000)), ncomp=ncomp, band=band)
    seq = shell_norms(part, f, [2.0])[0][0]
    for j in range(part.jmax + 1):
        assert _close(seq[j], lp_norm(project(part, f, j), 2))
    s = data.draw(st.floats(-2.0, 3.0))
    (got,) = shell_norms(part, f, pairs=[(s, 2.0)])[1]
    moduli = [project(part, f, j).modulus() for j in range(part.jmax + 1)]
    square = sum(4.0 ** (j * s) * m * m for j, m in enumerate(moduli[1:], 1))
    cap = np.sqrt(np.mean(moduli[0] ** 2))
    want = float(np.sqrt(cap**2 + np.mean(np.sqrt(square) ** 2)))
    assert _close(got, want)


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


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_support_storage_equals_dense_profiles(data):
    # every profile and every window sum read from the supports is the dense
    # telescoped one bit for bit, and so is a window projection's product
    dim = data.draw(st.integers(1, 4))
    N = 16 if dim == 4 else data.draw(st.sampled_from((16, 32, 64)))
    part = build_partition(GridSpec(dim, N))
    grid, J = part.grid, part.jmax
    ref = _dense_profiles(grid)
    for j in range(J + 1):
        assert np.array_equal(_bits(part.profile(j)), _bits(ref[j])), j
    block = data.draw(st.sampled_from((61, rng._BLOCK)))
    for lo in range(J + 1):
        for hi in range(lo, J + 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rng, "_BLOCK", block)
                pieces = list(part.support(lo, hi))
            assert all(s.size <= block for s, _ in pieces)
            sites = np.concatenate([s for s, _ in pieces])
            values = np.concatenate([v for _, v in pieces])
            dense = np.zeros(grid.npoints)
            dense[sites] = values
            assert np.array_equal(_bits(dense), _bits(sum(ref[lo:hi + 1]).ravel())), (lo, hi)
    assert part.partition_deviation() == float(np.max(np.abs(sum(ref) - 1.0)))
    lo = data.draw(st.integers(0, J))
    hi = data.draw(st.integers(lo, J))
    f = random_field(grid, data.draw(st.integers(0, 10_000)), ncomp=data.draw(st.integers(1, 2)))
    got = project_window(part, f, lo, hi).coefficients
    assert np.array_equal(got, f.coefficients * sum(ref[lo:hi + 1]))
