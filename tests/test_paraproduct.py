import dataclasses
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpw import grid as grid_module, lp, paraproduct, psido, verify
from lpw.exponents import RegularityParams, zone_transfers
from lpw.grid import (GridSpec, SpectralField, _modulus, _modulus_norm, _norm, _pair_product_fine,
                      _physical_at, alias_free_size, dealiased_product, field_from_padded,
                      lp_norm, padded_physical, random_field)
from lpw.lp import (build_partition, flat_dyadic_field, project, project_window, shell_norms,
                    shell_packet, shell_sum_field)
from lpw.paraproduct import (_window_band, _zone_grid, _zone_windows, all_pairs_shell,
                             all_pairs_shells, product_shell, split, zone_branches,
                             zone_estimate_report, zone_estimate_reports, zones)
from lpw.probe import equation_spec, run_probe
from lpw.psido import commutator_shell
from lpw.symbols import _matrix_rows, apply, multiplier, resolve_symbol
from lpw.verify import verify_bernstein


class TestZoneSets:
    def test_low_high_literal(self):
        zp = zones(100, 120)
        expect = frozenset((i, j) for i in range(0, 95) for j in range(97, 104))
        assert zp.LH == expect

    def test_high_low_mirror(self):
        zp = zones(100, 120)
        assert zp.HL == frozenset((j, i) for (i, j) in zp.LH)

    def test_pairwise_disjoint(self):
        assert zones(100, 120).disjoint()
        assert zones(12, 19).disjoint()

    def test_truncation_flag(self):
        assert zones(118, 120).truncated      # k+7 beyond range
        assert zones(8, 120).truncated        # k < 10
        assert not zones(100, 120).truncated

    def test_low_cap_is_low_index(self):
        zp = zones(12, 20)
        assert (0, 12) in zp.LH
        assert (12, 0) in zp.HL

    def test_window_table_is_the_zone_sets(self):
        # the signed rectangles split sums, each inside [0, jmax], count each
        # pair of a zone once and every other pair not at all
        for jmax in range(3, 25):
            for k in range(jmax + 1):
                zp = zones(k, jmax)
                for windows, expect in zip(_zone_windows(k, jmax), (zp.LL, zp.LH, zp.HL, zp.HH)):
                    count = np.zeros((jmax + 1, jmax + 1), dtype=int)
                    for sign, lo_v, hi_v, lo_w, hi_w in windows:
                        assert 0 <= lo_v <= hi_v <= jmax and 0 <= lo_w <= hi_w <= jmax
                        count[lo_v:hi_v + 1, lo_w:hi_w + 1] += sign
                    assert set(np.unique(count)) <= {0, 1}, (k, jmax)
                    assert {tuple(map(int, ij)) for ij in np.argwhere(count == 1)} == expect, \
                        (k, jmax)


def _per_column_zones(V, w, k, part):
    """Coefficients of the zones I..IV as sums of one product per window,
    with one HH window per column j and windows not clipped to [0, jmax]."""
    jmax = part.jmax
    LL = [(1, k - 5, k + 7, k - 5, k + 7)]
    if k + 6 <= jmax:
        LL.append((-1, k + 6, k + 7, k + 6, k + 7))
    LH = [(1, 0, k - 6, k - 3, k + 3)] if k >= 6 else []
    HL = [(1, k - 3, k + 3, 0, k - 6)] if k >= 6 else []
    HH = [(1, max(k + 6, j - 3), min(jmax, j + 3), j, j) for j in range(k + 6, jmax + 1)]
    out = []
    for windows in (LL, LH, HL, HH):
        total = np.zeros((1,) + part.grid.shape, dtype=complex)
        for sign, lo_v, hi_v, lo_w, hi_w in windows:
            M = _zone_grid(part, hi_v, hi_w, k)
            fine = _pair_product_fine(
                _physical_at(project_window(part, V, lo_v, hi_v).coefficients, M),
                _physical_at(project_window(part, w, lo_w, hi_w).coefficients, M))
            total += sign * field_from_padded(part.grid, fine).coefficients
        out.append(project(part, SpectralField(part.grid, freq=total), k).coefficients)
    return out


class TestSplit:
    def test_constant_coefficient(self):
        g = GridSpec(1, 128)
        part = build_partition(g)
        V = SpectralField(g, phys=np.full(g.shape, 2.0 + 0j))
        w = random_field(g, 3)
        k = 5
        zs = split(V, w, k, part)
        direct = product_shell(V, w, k, part)
        assert lp_norm(zs.total - direct, 2) <= 1e-10 * lp_norm(direct, 2)

    def test_cover_matches_bruteforce(self):
        g = GridSpec(1, 128)
        part = build_partition(g)
        V = random_field(g, 4)
        w = random_field(g, 5)
        scale = lp_norm(V, 2) * lp_norm(w, math.inf)
        for k in (4, 5, 6):
            zs = split(V, w, k, part)
            brute = all_pairs_shell(V, w, k, part)
            assert lp_norm(zs.total - brute, 2) <= 1e-10 * scale

    def test_shared_oracle_equals_per_shell_sums(self, part1):
        # every pair's product on the 3/2 grid, P_i V first, summed there in
        # pair order, one forward transform, projected onto each k: bit for bit
        V, w = random_field(part1.grid, 11), random_field(part1.grid, 12)
        ks = (5, 6, 7)
        shells = range(part1.jmax + 1)
        fine = None
        for i in shells:
            for j in shells:
                term = _pair_product_fine(padded_physical(project(part1, V, i)),
                                          padded_physical(project(part1, w, j)))
                fine = term if fine is None else fine + term
        pairs = field_from_padded(part1.grid, fine)
        for k, got in zip(ks, all_pairs_shells(V, w, ks, part1)):
            assert np.array_equal(got.coefficients, project(part1, pairs, k).coefficients)

    def test_shared_oracle_matches_per_pair_transforms(self, part1):
        # the sum of every pair's own dealiased product, projected onto k, at
        # the exact-cover bound
        V, w = random_field(part1.grid, 11), random_field(part1.grid, 12)
        ks = (5, 6, 7)
        shells = range(part1.jmax + 1)
        scale = lp_norm(V, 2) * lp_norm(w, math.inf)
        for k, got in zip(ks, all_pairs_shells(V, w, ks, part1)):
            total = None
            for i in shells:
                for j in shells:
                    term = project(part1, dealiased_product(project(part1, V, i),
                                                            project(part1, w, j)), k)
                    total = term if total is None else total + term
            assert lp_norm(got - total, 2) <= 1e-10 * scale

    @pytest.mark.parametrize("dim, N, k, zone", [
        (2, 128, 6, 1),   # LH's one rectangle
        (1, 4096, 4, 3),  # HH's first window
    ], ids=["LH", "HH"])
    def test_cover_fails_without_one_window(self, monkeypatch, dim, N, k, zone):
        # the exact cover against the oracle sees one rectangle dropped from
        # the window table, by far more than its 1e-10 gate
        part = build_partition(GridSpec(dim, N))
        V, w = random_field(part.grid, 4), random_field(part.grid, 5)
        gate = 1e-10 * lp_norm(V, 2) * lp_norm(w, math.inf)
        brute = all_pairs_shells(V, w, [k], part)[0]
        assert lp_norm(split(V, w, k, part).total - brute, 2) <= gate
        windows = paraproduct._zone_windows

        def dropping(*args):
            table = [list(z) for z in windows(*args)]
            del table[zone][0]
            return tuple(table)

        monkeypatch.setattr(paraproduct, "_zone_windows", dropping)
        assert lp_norm(split(V, w, k, part).total - brute, 2) >= 1e4 * gate

    def test_low_coefficient_high_field_hits_one_zone(self):
        g = GridSpec(1, 1 << 13)
        part = build_partition(g)
        k = 10
        V = shell_packet(part, 2, 6)
        w = shell_packet(part, k, 7)
        zs = split(V, w, k, part)
        assert lp_norm(zs.II, 2) > 0.0  # low-V high-w zone
        for z in (zs.I, zs.III, zs.IV):
            assert lp_norm(z, 2) <= 1e-12 * lp_norm(zs.II, 2)

    @pytest.mark.parametrize("dim, N, ks", [
        (1, 1 << 18, (10,)),    # jmax = k+7: LL's corner is HH's one window
        (1, 1 << 16, (9,)),     # jmax = k+6: the same, one shell wide
        (1, 1 << 20, (10,)),    # four HH columns share one V window
        (2, 128, (4, 5, 6)),    # truncated zones
    ])
    def test_zones_equal_per_column_products(self, dim, N, ks):
        # each zone against the per-column window list, unclipped, with each
        # product on its own grid and transformed on its own
        part = build_partition(GridSpec(dim, N))
        V, w = random_field(part.grid, 21), random_field(part.grid, 22)
        for k in ks:
            zs = split(V, w, k, part)
            for got, ref in zip((zs.I, zs.II, zs.III, zs.IV), _per_column_zones(V, w, k, part)):
                err = np.linalg.norm((got.coefficients - ref).ravel())
                assert err <= 1e-13 * np.linalg.norm(ref.ravel()), (N, k)
            direct = product_shell(V, w, k, part)
            assert lp_norm(zs.total - direct, 2) <= 1e-10 * lp_norm(direct, 2)

    def test_vector_dot_cover(self):
        g = GridSpec(2, 64)
        part = build_partition(g)
        V = random_field(g, 8, ncomp=2)
        w = random_field(g, 9, ncomp=2)
        k = 4
        zs = split(V, w, k, part)
        direct = product_shell(V, w, k, part)
        assert zs.total.ncomp == 1
        assert lp_norm(zs.total - direct, 2) <= 1e-10 * lp_norm(V, 2) * lp_norm(w, math.inf)


_SIZES = sorted(base << a for base in (1, 3, 5) for a in range(48))
_UNCAPPED = 1 << 40  # a lattice whose 3/2 grid caps none of the sizes below


class TestAliasFreeGrid:
    """The dealiasing rule: M > max(B1 + B2 + K, 2 max(B1, B2)), capped at 3N/2."""

    @given(st.floats(0.5, 1e6), st.floats(0.5, 1e6), st.floats(0.5, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_smallest_admissible_size(self, b1, b2, K):
        need = max(b1 + b2 + K, 2.0 * max(b1, b2))
        assert alias_free_size(_UNCAPPED, b1, b2, K) == next(m for m in _SIZES if m > need)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_ring_product_matches_three_halves_grid(self, data):
        dim = data.draw(st.sampled_from((1, 2)))
        N = data.draw(st.sampled_from((32, 64, 256) if dim == 1 else (16, 32, 64)))
        part = build_partition(GridSpec(dim, N))
        shell = st.integers(0, part.jmax)
        lo_v, hi_v = sorted(data.draw(st.tuples(shell, shell)))
        lo_w, hi_w = sorted(data.draw(st.tuples(shell, shell)))
        k = data.draw(shell)
        nc_v, nc_w = data.draw(st.sampled_from(((1, 1), (2, 2), (1, 2), (2, 1))))
        seed = data.draw(st.integers(0, 1000))
        V = project_window(part, random_field(part.grid, seed, ncomp=nc_v), lo_v, hi_v)
        w = project_window(part, random_field(part.grid, seed + 1, ncomp=nc_w), lo_w, hi_w)
        M = _zone_grid(part, hi_v, hi_w, k)
        rule = alias_free_size(_UNCAPPED, _window_band(part, hi_v), _window_band(part, hi_w),
                               _window_band(part, k))
        assert M == rule or (k == part.jmax and M == 3 * N // 2 < rule)
        fine = _pair_product_fine(_physical_at(V.coefficients, M),
                                  _physical_at(w.coefficients, M))
        got = project(part, field_from_padded(part.grid, fine), k)
        full = dealiased_product(V, w)  # on the fixed 3/2 grid
        ref = project(part, full, k)
        err = np.linalg.norm((got.coefficients - ref.coefficients).ravel())
        assert err <= 1e-13 * np.linalg.norm(full.coefficients.ravel())


def _params_r_ge_q():
    return RegularityParams(n=1, alpha=2.0, beta=0.5, gamma=1.0, s=1.1, p=10.0 / 3.0,
                            sigma=1.25, r=1.0 / 0.45)


class TestZoneEstimates:
    def test_zero_coefficient_flagged(self):
        g = GridSpec(1, 1 << 13)
        part = build_partition(g)
        params = _params_r_ge_q()
        V = SpectralField.zeros(g)
        u = flat_dyadic_field(part, 11)
        Q = multiplier(1.0, lambda *xis: (1.0 + np.asarray(xis[0]) ** 2) ** 0.5)
        rep = zone_estimate_report(V, u, Q, 10, params, part)
        d = rep.as_dict()
        assert rep.delta == 0.0
        assert d["zone"]["I+II"]["lhs"] == 0.0
        # right side keeps only the smoothness tail; constants ~ 0, not NaN,
        # unless the tail also vanishes
        assert d["zone"]["III"]["constant"] in (None, 0.0)

    def test_dominated_with_stable_constant(self):
        # shells picked so every zone is populated on this grid (the
        # high-high band needs k+6 <= jmax)
        g = GridSpec(1, 1 << 15)
        part = build_partition(g)
        params = _params_r_ge_q()
        sigma, r = params.sigma, params.r
        u = shell_sum_field(part, {j: 2.0 ** (-(sigma + 0.3) * j)
                                   for j in range(0, part.jmax + 1)}, 12, norm_p=r)
        V = shell_sum_field(part, {j: 1.0 for j in range(0, part.jmax + 1)}, 13)
        Q = multiplier(params.gamma,
                       lambda *xis: (1.0 + np.asarray(xis[0]) ** 2) ** (params.gamma / 2))
        consts = {"I+II": [], "III": [], "IV": []}
        for k in (6, 7, 8):
            d = zone_estimate_report(V, u, Q, k, params, part).as_dict()
            for zone, vals in consts.items():
                c = d["zone"][zone]["constant"]
                assert c is not None and c > 0.0
                vals.append(c)
        for zone, vals in consts.items():
            assert max(vals) / min(vals) <= 10.0

    def test_branch_flags_match_signs(self):
        g = GridSpec(1, 1 << 13)
        part = build_partition(g)
        u = flat_dyadic_field(part, 14)
        V = flat_dyadic_field(part, 15)
        for params, b3, b4 in (
            (_params_r_ge_q(), "r>=q", "r>=q'"),
            (RegularityParams(n=1, alpha=2.0, beta=0.5, gamma=1.0, s=1.1, p=2.0,
                              sigma=1.25, r=1.0 / 0.65), "r<q", "r<q'"),
        ):
            Q = multiplier(params.gamma,
                           lambda *xis: (1.0 + np.asarray(xis[0]) ** 2) ** 0.5)
            rep = zone_estimate_report(V, u, Q, 10, params, part)
            assert rep.branch_iii == b3
            assert rep.branch_iv == b4
            assert zone_branches(params) == (b3, b4)
            # the sign conditions behind the branch choices
            assert params.sigma - params.gamma - params.n / params.r < 0.0
            assert -params.alpha + params.beta + params.sigma < 0.0

    def test_reports_equal_one_shell_calls(self):
        g = GridSpec(1, 1 << 12)
        part = build_partition(g)
        u = flat_dyadic_field(part, 18)
        V = flat_dyadic_field(part, 19)
        Q = multiplier(1.0, lambda *xis: (1.0 + np.asarray(xis[0]) ** 2) ** 0.5)
        for params in (_params_r_ge_q(), RegularityParams(
                n=1, alpha=2.0, beta=0.5, gamma=1.0, s=1.1, p=2.0, sigma=1.25, r=1.0 / 0.65)):
            ks = [4, 6, 8]
            many = [rep.as_dict() for rep in zone_estimate_reports(V, u, Q, ks, params, part)]
            assert many == [zone_estimate_report(V, u, Q, k, params, part).as_dict()
                            for k in ks]

    def test_report_schema(self):
        g = GridSpec(1, 1 << 13)
        part = build_partition(g)
        params = _params_r_ge_q()
        u = flat_dyadic_field(part, 16)
        V = flat_dyadic_field(part, 17)
        Q = multiplier(1.0, lambda *xis: (1.0 + np.asarray(xis[0]) ** 2) ** 0.5)
        rep = zone_estimate_report(V, u, Q, 11, params, part)
        d = rep.as_dict()
        assert set(d) == {"k", "delta", "branch_flags", "zone", "truncated"}
        assert set(d["zone"]) == {"I+II", "III", "IV"}
        for entry in d["zone"].values():
            assert set(entry) == {"lhs", "rhs", "constant"}
        assert rep.constants == tuple(d["zone"][z]["constant"] for z in ("I+II", "III", "IV"))


def _unstreamed_zone_norms(V, w, k, part, r):
    """The L^r norms of the zones of one split of V against every component
    of w at once, read from the `_modulus` of their samples."""
    zs = split(V, w, k, part)
    return [_modulus_norm(_modulus(f.physical), r) for f in (zs.I, zs.II, zs.III, zs.IV)]


def _equal_norms(got, want, r) -> bool:
    """Exact at r != 2, where both sides are read from the same sample
    moduli; at r = 2 `_zone_norms` reads each zone from its coefficients."""
    return got == want if r != 2 else got == pytest.approx(want, rel=1e-12, abs=0)


class TestStreamedZoneReports:
    """One split of V against each field `_zone_norms` is fed, w whole or
    its rows, and the four zones of each split reduced at once."""

    @staticmethod
    def _gjms(r):
        # V = Lambda^3 u, scalar, against w = grad u at gjms 3,32
        eq = equation_spec("gjms", n=3)
        part = build_partition(GridSpec(3, 32))
        u = random_field(part.grid, 53, radial_profile=lambda x: (1.0 + x) ** -3.0)
        params = eq.gains.params.lifted()
        if r is not None:
            params = dataclasses.replace(params, r=r)
        return eq, part, u, eq.coefficient(u), params

    @pytest.mark.parametrize("r", [None, 2.0], ids=["gjms-r", "r=2"])
    def test_gjms_reports_equal_the_unstreamed_zone_norms(self, r):
        eq, part, u, V, params = self._gjms(r)
        ks = (2, 3, 4)
        reports = zone_estimate_reports(V, u, eq.Q, ks, params, part)
        w = apply(eq.Q, u)
        lift = zone_transfers(params)["r<q"]
        for k, rep in zip(ks, reports):
            n = _unstreamed_zone_norms(V, w, k, part, params.r)
            scale = 2.0 ** (lift * k)
            assert n[0] > 0.0
            got = (rep.low_zones.lhs, rep.high_low.lhs, rep.high_high.lhs)
            want = (scale * (n[0] + n[1]), scale * n[2], scale * n[3])
            assert _equal_norms(got, want, params.r)
            assert rep.truncated == zones(k, part.jmax).truncated

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_every_zone_equals_the_unstreamed_norm(self, r):
        # at 2,128 and k = 6 zones I, II and III are nonzero; fed a
        # one-component w whole, a three-component w whole (three-component
        # zones) and its components in turn
        part = build_partition(GridSpec(2, 128))
        V = random_field(part.grid, 54)
        w1, w3 = random_field(part.grid, 55), random_field(part.grid, 56, ncomp=3)
        for w, ws in ((w1, (w1,)), (w3, (w3,)), (w3, map(w3.component, range(3)))):
            got, truncated = paraproduct._zone_norms(V, ws, 6, part, r)
            want = _unstreamed_zone_norms(V, w, 6, part, r)
            assert all(v > 0.0 for v in want[:3])
            assert _equal_norms(got, tuple(want), r)
            assert truncated

    def test_zone_reports_peak_memory(self):
        # 10.49 MB traced when each split made the 3-component zones of w =
        # grad u, 5.91 MB when the whole w lived through the splits
        eq, part, u, V, params = self._gjms(None)
        norms, (c_rho,) = shell_norms(part, u, [params.r], [(params.sigma, params.r)])
        args = (V, u, eq.Q, (3, 4), params, part, norms[0], c_rho, _norm(V, params.q))
        paraproduct._zone_reports(*args)
        tracemalloc.start()
        try:
            paraproduct._zone_reports(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.1e6

    def test_rows_equal_the_whole_gradient(self):
        # each row of grad u, formed alone for its split, equals that
        # component of apply(Q, u), bit for bit
        eq, part, u, V, params = self._gjms(None)
        rows = [w.coefficients.tobytes() for w in _matrix_rows(eq.Q, u)]
        w = apply(eq.Q, u)
        assert rows == [w.component(c).coefficients.tobytes() for c in range(w.ncomp)]


def _zone_bits(zs) -> bytes:
    return b"".join(z.coefficients.tobytes() for z in (zs.I, zs.II, zs.III, zs.IV))


class TestHelperTransforms:
    """The split's padded V windows, the oracle's padded V shells and zones I
    and III of the zone reports are transformed on grid's helper thread;
    every result equals the one with each transform run inline, bit for bit."""

    @pytest.mark.parametrize("dim,N,k", [
        (2, 128, 4), (2, 128, 5), (2, 128, 6),
        (1, 1 << 16, 9), (1, 1 << 16, 10), (1, 1 << 16, 11),
        (1, 1 << 18, 10),  # the 5 * 2^16-point windows stay on the caller
    ])
    def test_split_bits_equal_the_inline_split(self, inline_transforms, dim, N, k):
        part = build_partition(GridSpec(dim, N))
        V, w = random_field(part.grid, 41), random_field(part.grid, 42)
        got = _zone_bits(split(V, w, k, part))
        inline_transforms()
        assert got == _zone_bits(split(V, w, k, part))

    def test_oracle_bits_equal_the_inline_oracle(self, inline_transforms):
        part = build_partition(GridSpec(2, 128))
        V, w = random_field(part.grid, 43), random_field(part.grid, 44)
        got = [t.coefficients.tobytes() for t in all_pairs_shells(V, w, (4, 5, 6), part)]
        inline_transforms()
        assert got == [t.coefficients.tobytes()
                       for t in all_pairs_shells(V, w, (4, 5, 6), part)]

    @pytest.mark.parametrize("p,r", [(10.0 / 3.0, 1.0 / 0.45), (2.0, 1.0 / 0.65)],
                             ids=["r>=q", "r<q"])
    def test_zone_reports_equal_the_inline_reports(self, inline_transforms, p, r):
        # the data of the benchmark's zone-report branches
        part = build_partition(GridSpec(1, 1 << 16))
        params = RegularityParams(n=1, alpha=2.0, beta=0.5, gamma=1.0, s=1.1, p=p,
                                  sigma=1.25, r=r)
        V = flat_dyadic_field(part, 45)
        u = shell_sum_field(part, {j: 2.0 ** (-(params.sigma + 0.3) * j)
                                   for j in range(1, part.jmax + 1)}, 46, norm_p=r)
        Q = multiplier(1.0, lambda *xis: (1.0 + sum(np.asarray(a) ** 2 for a in xis)) ** 0.5)

        def reports():
            return json.dumps([rep.as_dict() for rep in
                               zone_estimate_reports(V, u, Q, (9, 10, 11), params, part)])

        got = reports()
        inline_transforms()
        assert got == reports()

    def test_ns_probe_bits_equal_the_inline_probe(self, inline_transforms):
        # biharmonic: tests/test_lp.py::test_probe_bits_equal_the_inline_split
        eq, grid = equation_spec("ns", n=2), GridSpec(2, 256)
        got = json.dumps(run_probe(eq, grid, seed=9).as_dict())
        inline_transforms()
        assert got == json.dumps(run_probe(eq, grid, seed=9).as_dict())

    @pytest.mark.parametrize("module,grid,call", [
        (grid_module, GridSpec(2, 128), lambda V, w, part: split(V, w, 5, part)),
        (grid_module, GridSpec(1, 1 << 16), lambda V, w, part: split(V, w, 10, part)),
        (grid_module, GridSpec(2, 128), lambda V, w, part: all_pairs_shells(V, w, [5], part)),
        (lp, GridSpec(2, 128), lambda V, w, part: shell_norms(part, V, [2.5])),
        (grid_module, GridSpec(2, 128),
         lambda V, w, part: paraproduct._zone_norms(V, (w,), 5, part, 2.5)),
        (grid_module, GridSpec(1, 1 << 14), lambda V, w, part: commutator_shell(
            resolve_symbol("sep:cos:0*pow:1"), part, V, [10, 11])),
    ], ids=["split", "split-1d", "oracle", "shell-norms", "zone-norms", "commutator"])
    def test_transform_error_reaches_the_caller(self, monkeypatch, module, grid, call):
        # every call site that hands off a run of transforms does it through
        # `_one_ahead` or `_beside`: the error of one in flight on the helper
        # reaches the caller too; the caller's own transforms run
        class Boom(Exception):
            pass

        threads = []

        def failing(src, out=None, _inverse=grid_module._inverse):
            on_caller = threading.current_thread() is threading.main_thread()
            threads.append(on_caller)
            if on_caller:
                return _inverse(src, out=out)
            raise Boom

        part = build_partition(grid)
        V, w = random_field(part.grid, 47), random_field(part.grid, 48)
        monkeypatch.setattr(module, "_inverse", failing)
        with pytest.raises(Boom):
            call(V, w, part)
        assert False in threads  # raised on the helper
        monkeypatch.undo()
        assert call(V, w, part) is not None

    @pytest.mark.parametrize("points,helper", [(5 << 16, False), (5 << 14, True)])
    def test_lines_over_2_17_points_stay_on_the_caller(self, points, helper):
        # pocketfft makes its per-line scratch on the thread that transforms:
        # the 327,680-point windows of a 2^18 split on the helper raised the
        # benchmark's peak memory by 13 %
        threads = []

        def recording(src, out=None):
            threads.append(threading.current_thread() is threading.main_thread())
            return out

        grid_module._soon(recording, np.zeros((1, points // 2 + 1), dtype=complex),
                          np.empty((1, points)))()
        assert threads == [not helper]

    def test_oracle_peak_memory(self):
        # 6.19 MiB: the seven padded P_j w, the pair sum, one pair's product
        # and two padded P_i V (one in flight ahead), 0.56 MiB each; 6.27
        # when each pair's product was transformed on its own, one ahead
        part = build_partition(GridSpec(2, 128))
        V, w = random_field(part.grid, 49), random_field(part.grid, 50)
        all_pairs_shells(V, w, [5], part)  # the helper thread started
        tracemalloc.start()
        try:
            all_pairs_shells(V, w, [5], part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.2 * 2**20

    def test_split_peak_memory(self):
        # 20.14 MiB, as when every padded window was transformed inline
        part = build_partition(GridSpec(1, 1 << 18))
        V, w = random_field(part.grid, 51), random_field(part.grid, 52)
        split(V, w, 10, part)
        tracemalloc.start()
        try:
            split(V, w, 10, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20.2 * 2**20
