import math
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpw.grid import (GridSpec, SpectralField, _forward, _inverse, _pair_product_fine,
                      dealiased_product, field_from_padded, grid_product, l2_norm, lp_norm,
                      padded_physical, random_field)
from lpw.exponents import RegularityParams
from lpw.lp import build_partition, flat_dyadic_field, shell_norms
from lpw.paraproduct import (all_pairs_shell, all_pairs_shells, product_shell, split,
                             zone_estimate_report, zone_estimate_reports)
from lpw.probe import equation_spec, run_probe
from lpw.psido import commutator_shell, commutator_symbol_remainder, mapping_constant
from lpw.symbols import apply, multiplier, resolve_symbol
from lpw.verify import verify_apbound, verify_partition


def mode(grid, xi, ncomp=1):
    """Pure lattice mode exp(i x.xi)."""
    phase = np.zeros(grid.shape)
    for ax, k in enumerate(xi):
        phase = phase + k * np.broadcast_to(grid.x_axes[ax], grid.shape)
    vals = np.exp(1j * phase)
    return SpectralField(grid, phys=np.stack([vals] * ncomp))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 64)
        with pytest.raises(ValueError):
            GridSpec(2, 48)  # not a power of two
        with pytest.raises(ValueError):
            GridSpec(2, 8)  # too small

    def test_jmax(self):
        assert GridSpec(2, 256).jmax == 7
        assert GridSpec(1, 1 << 20).jmax == 19
        assert GridSpec(2, 16).jmax == 3

    def test_frequency_lattice(self):
        g = GridSpec(1, 16)
        xi = np.asarray(g.xi_axes[0]).ravel()
        assert set(xi.astype(int)) == set(range(-8, 8))
        assert g.nyquist_mask.sum() == 1  # single -N/2 mode in 1d

    @pytest.mark.parametrize("dim,N", [(1, 16), (2, 64), (3, 32), (4, 16)])
    def test_modulus_is_the_only_lattice_array_it_holds(self, dim, N):
        # |xi| is cached without |xi|^2, and its largest value is the corner's
        # sqrt(dim (N/2)^2), which the symbols' overflow guard reads instead
        g = GridSpec(dim, N)
        xi_abs = g.xi_abs
        assert sorted(vars(g)) == ["dim", "points_per_axis", "xi_abs", "xi_axes"]
        assert xi_abs.max() == math.sqrt(dim * (N // 2) ** 2)
        fresh = GridSpec(dim, N)
        apply(multiplier(2.0, lambda *xis: sum(a * a for a in xis)), random_field(fresh, 1))
        assert "xi_abs" not in vars(fresh)


class TestTransforms:
    def test_constant_field_is_dc(self, grid2):
        f = SpectralField(grid2, phys=np.ones(grid2.shape))
        c = f.coefficients[0]
        assert abs(c[0, 0] - 1.0) < 1e-14
        c[0, 0] = 0.0
        assert np.abs(c).max() < 1e-14

    def test_pure_mode_single_coefficient(self, grid2):
        f = mode(grid2, (1, 0))
        c = f.coefficients[0]
        assert abs(c[1, 0] - 1.0) < 1e-13
        mask = np.ones(grid2.shape, dtype=bool)
        mask[1, 0] = False
        assert np.abs(c[mask]).max() < 1e-13

    def test_roundtrip_identity(self, grid2):
        f = random_field(grid2, 11)
        back = SpectralField(grid2, phys=f.physical)
        num = np.linalg.norm((back.coefficients - f.coefficients).ravel())
        assert num / np.linalg.norm(f.coefficients.ravel()) <= 1e-12

    @pytest.mark.parametrize("ncomp", [1, 3])
    @pytest.mark.parametrize("lattice", [(256,), (32, 64), (16, 16, 16),  # 2^a: bit for bit
                                         (96,), (48, 48), (24, 24, 24),   # 3 * 2^a
                                         (80,), (40, 40), (20, 20, 20)])  # 5 * 2^a
    def test_scaling_equals_a_separate_pass(self, ncomp, lattice):
        # fftn / N^n and ifftn * N^n, scaled inside the transform instead;
        # only where 1/N^n is inexact may the last digits move
        x = np.random.default_rng(len(lattice)).standard_normal((2 * ncomp,) + lattice)
        x = x[:ncomp] + 1j * x[ncomp:]
        axes, n = tuple(range(1, x.ndim)), math.prod(lattice)
        exact = all(N & (N - 1) == 0 for N in lattice)
        for fn, ref in ((_forward, np.fft.fftn(x, axes=axes) / n),
                        (_inverse, np.fft.ifftn(x, axes=axes) * n)):
            buf = x.copy()
            got, in_place = fn(x), fn(buf, out=buf)
            assert in_place is buf and np.array_equal(in_place, got)
            if exact:
                assert np.array_equal(got, ref)
            else:
                assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


class TestTransformCounts:
    """Transforms of small fixed workloads, pinned so an extra pass fails.

    Each call is keyed by (transform, calling function): every transform
    goes through grid._forward or grid._inverse.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = Counter()
        for name in ("fftn", "ifftn"):
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                seen[_name, sys._getframe(1).f_code.co_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        return seen

    @pytest.fixture
    def shapes(self, monkeypatch):
        seen = Counter()
        for name in ("fftn", "ifftn"):
            def counted(a, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                seen[_name, a.shape[1:]] += 1
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        return seen

    def test_split(self, calls, grid2, part2):
        # LL only (k+6 > jmax leaves the corner and HH empty, k < 6 leaves LH/HL empty)
        split(random_field(grid2, 1), random_field(grid2, 2), 3, part2)
        assert calls == {("fftn", "_forward"): 1, ("ifftn", "_inverse"): 2}

    def test_split_zone_grids(self, shapes):
        # N = 2^18, k = 10: LL, its corner and HH reach the top shell (band
        # N/2), so they need M > N + K: 5 * 2^16.  HH's columns 16 and 17
        # share the V window [16, 17], so HH is the corner, made once for
        # both zones (8 big inverses when each zone made its own).  LH and HL
        # pair shells <= 4 with shells 7..13: M > 2 * 2^13 * 5/3, so 2^15.
        part = build_partition(GridSpec(1, 1 << 18))
        V, w = random_field(part.grid, 1), random_field(part.grid, 2)
        shapes.clear()
        split(V, w, 10, part)
        big, small = (5 << 16,), (1 << 15,)
        assert shapes == {("ifftn", big): 4, ("fftn", big): 1 + 1,
                          ("ifftn", small): 2 + 2, ("fftn", small): 1 + 1}

    def test_split_merges_high_high_columns(self, shapes):
        # N = 2^20, k = 10: the HH columns 16..19 share the V window [16, 19],
        # so HH is one product [16, 19]^2, on the grid M > N + K: 5 * 2^18
        # (8 inverses there when each column made its own product)
        part = build_partition(GridSpec(1, 1 << 20))
        V, w = random_field(part.grid, 1), random_field(part.grid, 2)
        shapes.clear()
        split(V, w, 10, part)
        hh = (5 << 18,)
        assert shapes[("ifftn", hh)] == 2 and shapes[("fftn", hh)] == 1

    def test_split_top_shell_keeps_three_halves_grid(self, shapes, grid2, part2):
        # at k = jmax the band rule asks for 2N; the 3/2 grid is already exact
        V, w = random_field(grid2, 1), random_field(grid2, 2)
        split(V, w, part2.jmax, part2)
        assert shapes == {("ifftn", (96, 96)): 2, ("fftn", (96, 96)): 1}

    def test_oracles_keep_three_halves_grid(self, shapes, grid2, part2):
        V, w = random_field(grid2, 1), random_field(grid2, 2)
        fine = (96, 96)
        product_shell(V, w, 3, part2)
        assert shapes == {("ifftn", fine): 2, ("fftn", fine): 1}
        shapes.clear()
        all_pairs_shell(V, w, 3, part2)
        # each shell of w and of V padded once, one forward per pair
        n = part2.jmax + 1
        assert shapes == {("ifftn", fine): 2 * n, ("fftn", fine): n * n}

    def test_separable_apply(self, calls):
        sym = resolve_symbol("sep:one*pow:2+twoplussin:0*ixi:1")
        apply(sym, random_field(GridSpec(2, 16), 3))
        assert calls == {("ifftn", "_inverse"): 2}

    def test_ns_nonlinearity(self, calls):
        g = GridSpec(2, 64)
        u = random_field(g, 4, ncomp=2)
        eq = equation_spec("ns", n=2)
        eq.nonlinearity(u, u)
        assert calls == {("fftn", "_forward"): 1, ("ifftn", "_inverse"): 2}

    @pytest.mark.parametrize("kind, dim, N", [("biharmonic", 2, 64), ("gjms", 3, 16)])
    def test_scalar_coefficient_nonlinearities(self, calls, kind, dim, N):
        # padded Q u and padded V, then one forward transform of the products
        eq = equation_spec(kind, n=dim)
        u = random_field(GridSpec(dim, N), 4)
        V = eq.coefficient(u)
        calls.clear()
        eq.nonlinearity(V, u)
        assert calls == {("fftn", "_forward"): 1, ("ifftn", "_inverse"): 2}

    def test_oracle_shares_padding_across_shells(self, shapes, part1):
        # ks = (5, 6, 7): each shell of w and of V padded once, one forward
        # per pair, projected onto all three shells
        V, w = random_field(part1.grid, 1), random_field(part1.grid, 2)
        shapes.clear()
        assert len(all_pairs_shells(V, w, (5, 6, 7), part1)) == 3
        n = part1.jmax + 1
        assert shapes == {("ifftn", (384,)): 2 * n, ("fftn", (384,)): n * n}

    def test_probe_skips_empty_shells(self, calls):
        # B M u_loc is zero (M = 0 for a multiplier L) and the parametrix's
        # low cutoff zeroes shell 0 of main_term and of forcing_side: those
        # 8 + 2 shells make no transform (85 inverses when they did).  One
        # split of u_loc (8 inverses) serves the fit, the recheck and the
        # zone reports (75 inverses when each split it again).  The Picard
        # solve takes no norm of its update (59 inverses when it took one
        # per iterate).  The forcing's scale, each iterate's residual and
        # the identity error read coefficients (57 inverses when they read
        # samples)
        run_probe(equation_spec("biharmonic"), GridSpec(2, 256), seed=9)
        assert calls == {("fftn", "_forward"): 10, ("ifftn", "_inverse"): 52}

    def test_probe_ns_reads_l2_shells_from_coefficients(self, calls):
        # ns at n = 2 has r = 2 and a recheck r = 2: no shell of u_loc, of
        # its first component or of the mainline fields is transformed (78
        # inverses when they were).  The Picard solve takes no norm of its
        # update (40 inverses when it took one per iterate).  The forcing's
        # scale, each iterate's residual, the identity error and the four
        # nonempty zone fields' L^2 norms read coefficients (37 inverses
        # when they read samples)
        run_probe(equation_spec("ns"), GridSpec(2, 256), seed=9)
        assert calls == {("fftn", "_forward"): 11, ("ifftn", "_inverse"): 27}

    def test_l2_sequence_transforms_nothing(self, calls, part2):
        f = random_field(part2.grid, 3, ncomp=2)  # coefficients only
        assert shell_norms(part2, f, [2.0])[0][0].size == part2.jmax + 1
        assert calls == {}

    @pytest.mark.parametrize("ncomp", [1, 3])
    def test_all_zero_field_syncs_without_a_transform(self, calls, grid2, ncomp):
        # samples of all-zero coefficients and coefficients of all-zero samples
        zeros = np.zeros((ncomp,) + grid2.shape)
        synced = (SpectralField(grid2, freq=zeros).physical,
                  SpectralField(grid2, phys=zeros).coefficients)
        assert all(a.shape == zeros.shape and not a.any() for a in synced)
        assert calls == {}

    def test_mixed_pairs_split_once(self, calls, part1):
        # a p = 3 pair needs every shell's modulus; the p = 2 pair reads the
        # same split's coefficients
        f = random_field(part1.grid, 4)
        assert len(shell_norms(part1, f, pairs=[(0.5, 2.0), (1.0, 3.0), (0.0, 2.0)])[1]) == 3
        assert calls == {("ifftn", "_inverse"): part1.jmax + 1}

    def test_symbol_remainder(self, calls):
        commutator_symbol_remainder(resolve_symbol("sep:cos:0*pow:1"), GridSpec(1, 64), 3)
        assert calls == {("fftn", "_forward"): 3, ("ifftn", "_inverse"): 3}

    def test_zone_report_splits_u_once(self, calls, part1):
        # one split of u (jmax + 1 inverses) serves both du and c_rho
        params = RegularityParams(n=1, alpha=2.0, beta=0.5, gamma=1.0, s=1.1, p=2.0,
                                  sigma=1.25, r=1.0 / 0.65)
        Q = multiplier(1.0, lambda *xis: (1.0 + xis[0] ** 2) ** 0.5, "qref")
        V, u = random_field(part1.grid, 5), random_field(part1.grid, 6)
        zone_estimate_report(V, u, Q, 3, params, part1)
        # split at k=3 pads the 2 LL windows and transforms 1 product back;
        # the L^r norm of zone I takes 1 inverse, ||V||_q (q = 2, read from
        # the coefficients) and the three empty zones (II, III and IV) none
        assert calls == {("fftn", "_forward"): 1,
                         ("ifftn", "_inverse"): 2 + 1 + part1.jmax + 1}

    def test_zone_reports_share_one_pass(self, calls, part1):
        # w = Q u, ||V||_q and the split of u serve both shells
        params = RegularityParams(n=1, alpha=2.0, beta=0.5, gamma=1.0, s=1.1, p=2.0,
                                  sigma=1.25, r=1.0 / 0.65)
        Q = multiplier(1.0, lambda *xis: (1.0 + xis[0] ** 2) ** 0.5, "qref")
        V, u = random_field(part1.grid, 5), random_field(part1.grid, 6)
        assert len(zone_estimate_reports(V, u, Q, [3, 6], params, part1)) == 2
        # split at k=3: LL only (2 inverse, 1 forward); at k=6: LL, LH and HL
        # (6 inverse, 3 forward); the norms of the 1 + 3 nonempty zones,
        # u's split; ||V||_q (q = 2) transforms nothing
        assert calls == {("fftn", "_forward"): 1 + 3,
                         ("ifftn", "_inverse"): 2 + 6 + 1 + 3 + part1.jmax + 1}

    def test_mapping_splits_each_field_once(self, calls, part1):
        f = random_field(part1.grid, 7)
        pairs = [(s, p) for s in (0.0, 1.0) for p in (1.5, 3.0)]
        assert len(mapping_constant(resolve_symbol("laplacian"), part1, f, pairs)) == 4
        assert calls == {("ifftn", "_inverse"): 2 * (part1.jmax + 1)}  # f and A f

    def test_partition_bundle_transforms_nothing(self, calls):
        # the fields are coefficients and the reconstruction error is an L^2
        # ratio (2 inverses when it read samples)
        verify_partition()
        assert calls == {}

    def test_apbound_bundle_transforms_only_separable_applies(self, calls):
        # every ratio is L^2: only the separable symbol's apply transforms,
        # once per shell (100 inverses when each norm read samples)
        verify_apbound()
        assert calls == {("ifftn", "_inverse"): 10}

    def test_paraproduct_bundle(self, paraproduct_run):
        # one padded product V w per grid, projected onto each of its shells
        # (360 when `product_shell` padded it again for every k); the zone
        # stability's 18 packets are inverse-transformed once for both cases
        # (351 when each case drew them again); the 4 and 3 HH columns of the
        # full zones at k = 10 and 11 are one product each (333 when each
        # column made its own)
        assert paraproduct_run[1] == 295

    def test_flat_field_transforms_nothing(self, calls):
        # each packet's L^2 scale is read from its coefficients (jmax
        # inverses when it read samples)
        flat_dyadic_field(build_partition(GridSpec(1, 4096)), 8)
        assert calls == {}

    def test_commutator_applies_once(self, calls):
        part = build_partition(GridSpec(1, 4096))
        f = flat_dyadic_field(part, 8)
        calls.clear()
        commutator_shell(resolve_symbol("sep:cos:0*pow:1"), part, f, [10, 11])
        # A f once (1 inverse, 1 forward); per shell A P_k f and P_k A f (1
        # inverse each), whose difference the norm reads in physical space
        assert calls == {("ifftn", "_inverse"): 1 + 2 * 2, ("fftn", "_forward"): 1}


class TestNorms:
    def test_constant(self, grid2):
        f = SpectralField(grid2, phys=(-2.5 + 0j) * np.ones(grid2.shape))
        for p in (1, 2, 3.5, math.inf):
            assert abs(lp_norm(f, p) - 2.5) < 1e-13

    def test_unimodular(self, grid2):
        f = mode(grid2, (3, -2))
        for p in (1, 2, 4, math.inf):
            assert abs(lp_norm(f, p) - 1.0) < 1e-12

    def test_parseval(self, grid2):
        f = random_field(grid2, 13)
        l2c = np.linalg.norm(f.coefficients.ravel())
        assert abs(lp_norm(f, 2) - l2c) <= 1e-10 * l2c

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_l2_norm_matches_samples_without_transform(self, data):
        # l2_norm reads whichever representation the field holds (the
        # coefficients when it holds both) and never transforms
        dim = data.draw(st.integers(1, 3))
        grid = GridSpec(dim, data.draw(st.sampled_from((16,) if dim == 3 else (16, 32))))
        f = random_field(grid, data.draw(st.integers(0, 10_000)),
                         ncomp=data.draw(st.integers(1, 3)),
                         band=data.draw(st.one_of(st.none(), st.floats(0.0, grid.points_per_axis))),
                         mean_zero=data.draw(st.booleans()))
        want = lp_norm(f, 2)  # f now holds both representations
        held = data.draw(st.sampled_from(("coefficients", "samples", "both")))
        g = SpectralField(grid, phys=None if held == "coefficients" else f.physical,
                          freq=None if held == "samples" else f.coefficients)
        refuse = mock.Mock(side_effect=AssertionError("transform"))
        with mock.patch.object(np.fft, "fftn", refuse), mock.patch.object(np.fft, "ifftn", refuse):
            got = l2_norm(g)
        assert abs(got - want) <= 1e-13 * want if want > 0.0 else got == 0.0

    def test_p_below_one_rejected(self, grid2):
        with pytest.raises(ValueError):
            lp_norm(random_field(grid2, 1), 0.5)

    def test_nan_p_rejected_before_any_transform(self, grid2):
        f = random_field(grid2, 1)
        refuse = mock.Mock(side_effect=AssertionError("transform"))
        with mock.patch.object(np.fft, "ifftn", refuse):
            with pytest.raises(ValueError, match="p must be >= 1"):
                lp_norm(f, math.nan)


class TestProducts:
    def test_identity(self, grid2):
        f = random_field(grid2, 14, band=20)
        one = SpectralField(grid2, phys=np.ones(grid2.shape))
        g = dealiased_product(f, one)
        assert lp_norm(g - f, 2) <= 1e-12 * lp_norm(f, 2)

    def test_mode_addition(self, grid2):
        f = dealiased_product(mode(grid2, (3, 1)), mode(grid2, (-1, 4)))
        expect = mode(grid2, (2, 5))
        assert lp_norm(f - expect, 2) <= 1e-12

    def test_convolution_oracle(self):
        g = GridSpec(1, 32)
        a = random_field(g, 5, band=10)
        b = random_field(g, 6, band=10)
        prod = dealiased_product(a, b)
        xi = np.asarray(g.xi_axes[0]).ravel().astype(int)
        idx = {k: i for i, k in enumerate(xi)}
        oracle = np.zeros(32, dtype=complex)
        ca, cb = a.coefficients[0], b.coefficients[0]
        for i1, k1 in enumerate(xi):
            for i2, k2 in enumerate(xi):
                if k1 + k2 in idx:
                    oracle[idx[k1 + k2]] += ca[i1] * cb[i2]
        err = np.abs(prod.coefficients[0] - oracle).max()
        assert err <= 1e-10 * lp_norm(a, 2) * lp_norm(b, 2)

    def test_minkowski_support(self, grid2):
        a = random_field(grid2, 7, band=5)
        b = random_field(grid2, 8, band=7)
        prod = dealiased_product(a, b)
        outside = grid2.xi_abs > 12.0 + 1e-9
        leak = np.abs(prod.coefficients[0, outside]).max()
        assert leak <= 1e-12 * lp_norm(a, 2) * lp_norm(b, 2)

    def test_cubic_rule_exact(self):
        # a triple product of modes near the band edge, as two binary
        # products, each exact on the 3/2 grid
        g = GridSpec(1, 32)
        m = mode(g, (5,))
        sq = dealiased_product(m, m)
        cube = dealiased_product(sq, m)
        assert lp_norm(cube - mode(g, (15,)), 2) <= 1e-12

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            dealiased_product(random_field(GridSpec(1, 32), 1),
                              random_field(GridSpec(1, 64), 1))

    def test_dot_product(self, grid2):
        u = random_field(grid2, 9, ncomp=2, band=12)
        v = random_field(grid2, 10, ncomp=2, band=12)
        d = dealiased_product(u, v)
        manual = dealiased_product(u.component(0), v.component(0)) + \
            dealiased_product(u.component(1), v.component(1))
        assert lp_norm(d - manual, 2) <= 1e-12 * lp_norm(d, 2)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_pair_product_in_place_is_bit_identical(self, data):
        # the product formed in pw's buffer equals the out-of-place formula
        # bit for bit, signed zeros included, and pv is never written.  Axes
        # have at least 2 points, as every lattice has: numpy multiplies an
        # array of one element in place without FMA, 1 ulp off `pv * pw`.
        dim = data.draw(st.integers(1, 4))
        shape = tuple(data.draw(st.lists(st.integers(2, 5), min_size=dim, max_size=dim)))
        kind = data.draw(st.sampled_from(("contract", "broadcast", "wide")))
        n = data.draw(st.integers(1 if kind == "broadcast" else 2, 4))
        nv, nw = {"contract": (n, n), "broadcast": (1, n), "wide": (n, 1)}[kind]
        gen = np.random.default_rng(data.draw(st.integers(0, 10_000)))

        def sample(ncomp):
            vals = gen.standard_normal((2, ncomp) + shape)
            vals[gen.random(vals.shape) < 0.1] = -0.0
            return vals[0] + 1j * vals[1]

        pv, pw = sample(nv), sample(nw)
        v_copy, w_copy = pv.copy(), pw.copy()
        want = (np.sum(v_copy * w_copy, axis=0, keepdims=True) if nv == nw > 1
                else v_copy * w_copy)
        got = _pair_product_fine(pv, pw)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert pv.tobytes() == v_copy.tobytes()
        if kind == "wide":
            assert pw.tobytes() == w_copy.tobytes()
        else:
            assert np.shares_memory(got, pw)

    def test_padding_writes_no_input_array(self, grid2):
        # padding transforms a fresh buffer in place; the way back transforms
        # the padded buffer itself, which no caller reads again
        f = random_field(grid2, 16, ncomp=2)
        c = f.coefficients.copy()
        fine = padded_physical(f)
        assert np.array_equal(f.coefficients, c)
        back = field_from_padded(grid2, fine)
        assert np.abs(back.coefficients - c).max() <= 1e-14

    def test_dealiased_product_peak_memory(self):
        # two padded factors (6.3 MB each at 3 * 2^17 points) and the product's
        # coefficients; a fresh array for the way back made it 16.8 MB
        g = GridSpec(1, 1 << 18)
        f, h = random_field(g, 1), random_field(g, 2)
        tracemalloc.start()
        try:
            dealiased_product(f, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14e6

    def test_grid_product_exact_support(self, grid2):
        f = random_field(grid2, 15)
        chi = np.where(grid2.center_distance < 1.0, 1.0, 0.0)
        g = grid_product(SpectralField(grid2, phys=chi), f)
        assert np.abs(g.physical[0][grid2.center_distance >= 1.0]).max() == 0.0
