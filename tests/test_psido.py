import math
import re
from collections import Counter

import numpy as np
import pytest

from lpw.grid import GridSpec, SpectralField, grid_product, lp_norm, random_field
from lpw.lp import build_partition, flat_dyadic_field, project, shell_norms
from lpw import grid as grid_module, psido
from lpw.probe import cutoff_field
from lpw.psido import (CUTOFF, ap_shell_ratios, commutator_shell, commutator_symbol_remainder,
                       ellipticity_margin, fit_log2_slope, mapping_constants, split_elliptic)
from lpw.smooth import ramp_up
from lpw.verify import _commutator_test_symbols
from lpw.symbols import (apply, grad_symbol, multiplication, multiplier, quantize_direct,
                         resolve_symbol, separable)

from test_grid import mode


def abs2(*xis):
    return sum(np.asarray(a) ** 2 for a in xis)


def cutoff_commutator(A, eta, f):
    """eta*(A f) - A(eta*f), with the cutoff applied as the grid multiplication operator."""
    return grid_product(eta, apply(A, f)) - apply(A, grid_product(eta, f))


class TestEllipticity:
    def test_pure_power(self, grid1):
        A = resolve_symbol("fractional_laplacian:1")  # |xi|^2
        assert abs(ellipticity_margin(A, grid1) - 1.0) <= 1e-12

    def test_directional_symbol_not_elliptic(self):
        g = GridSpec(2, 32)
        A = multiplier(1.0, lambda *xis: xis[0] + 0j, "xi1")
        assert ellipticity_margin(A, g) == 0.0

    def test_variable_coefficient_scan(self, grid1):
        A = resolve_symbol("sep:twoplussin:0*pow:2")
        margin = ellipticity_margin(A, grid1)
        # direct scan oracle: inf (2+sin x)(1+|xi|^2)/|xi|^2 over |xi| >= 4;
        # the (1+1/|xi|^2) factor bottoms out at the lattice edge, so the
        # infimum sits just above min(2+sin x) = 1
        r = grid1.xi_abs
        keep = r >= 4.0
        oracle = ((2.0 + np.sin(np.linspace(0, 2 * np.pi, 257))[:, None])
                  * (1.0 + r[keep][None, :] ** 2) / r[keep][None, :] ** 2).min()
        assert margin >= 1.0
        assert abs(margin - oracle) <= 1e-9
        # restricted to the first shells above the cutoff the bound is 17/16
        assert (1.0 + 1.0 / 16.0) <= (1.0 + 4.0**2) / 4.0**2

    @staticmethod
    def _whole_lattice_floor(sym, grid, r_min, shift, x_mask=None):
        """The floor from every qualifying lattice point at once, and every
        sampled x at once: the reference the block scan reproduces."""
        r = grid.xi_abs
        keep = r >= r_min
        xi_use = tuple(np.broadcast_to(a, grid.shape)[keep] for a in grid.xi_axes)
        scale = (shift + r[keep]) ** sym.order
        if sym.kind == "multiplier":
            return float(np.min(np.abs(np.asarray(sym.xi_func(*xi_use))) / scale))
        pts = psido._x_sample_points(grid, x_mask)
        xs, xis = tuple(p[:, None] for p in pts), tuple(x[None, :] for x in xi_use)
        vals = np.abs(sym.eval_xy(xs, xis))
        return float(np.min(vals / scale[None, :]))

    @pytest.mark.parametrize("block", [61, 1 << 15])
    @pytest.mark.parametrize("name,dim,N,shift,ball", [
        ("bilaplacian", 3, 64, 0.0, False),           # 262,144 points: 8 blocks
        ("fractional_laplacian:0.75", 1, 4096, 1.0, False),
        ("sep:twoplussin:0*pow:2", 2, 64, 0.0, True),  # masked x sample
        ("sep:twoplussin:1*pow:2", 2, 256, 1.0, False),
    ])
    def test_block_scan_equals_the_whole_lattice_scan(self, monkeypatch, block, name, dim, N,
                                                      shift, ball):
        grid = GridSpec(dim, N)
        A = resolve_symbol(name, dim)
        mask = (lambda *xs: psido.center_distance(*xs) <= 1.0) if ball else None
        want = self._whole_lattice_floor(A, grid, CUTOFF, shift, mask)
        monkeypatch.setattr(psido.rng, "_BLOCK", block)
        assert psido._symbol_floor(A, grid, CUTOFF, shift, mask) == want

    @pytest.mark.parametrize("block", [61, 1 << 15])
    def test_block_scan_propagates_nan(self, monkeypatch, block):
        # one NaN, past the first of the 61-point blocks, makes the floor NaN, as np.min does
        grid = GridSpec(2, 128)

        def values(*xis):
            out = abs2(*xis) + 0j
            out[(xis[0] == 50.0) & (xis[1] == -3.0)] = np.nan
            return out

        clean = multiplier(2.0, lambda *xis: abs2(*xis) + 0j)
        want = self._whole_lattice_floor(clean, grid, CUTOFF, 0.0)
        assert math.isnan(self._whole_lattice_floor(multiplier(2.0, values), grid, CUTOFF, 0.0))
        monkeypatch.setattr(psido.rng, "_BLOCK", block)
        assert math.isnan(psido._symbol_floor(multiplier(2.0, values), grid, CUTOFF, 0.0))
        assert psido._symbol_floor(clean, grid, CUTOFF, 0.0) == want

    def test_needs_positive_order(self, grid1):
        with pytest.raises(ValueError):
            ellipticity_margin(multiplication(lambda *xs: 1.0 + 0 * xs[0]), grid1)


class TestEllipticSplit:
    def test_multiplier_passthrough(self, grid1):
        L = multiplier(2.0, lambda *xis: (1.0 + abs2(*xis)), "m")
        es = split_elliptic(L, grid1)
        f = random_field(grid1, 1)
        assert lp_norm(apply(es.M, f), 2) == 0.0
        assert lp_norm(apply(es.E, f) - apply(L, f), 2) == 0.0

    def test_windowed_coefficient(self):
        # coefficient dead near the center ball: the glued part is exactly
        # the frozen-center symbol, and the remainder vanishes on the ball
        g = GridSpec(2, 64)

        def chi(*xs):
            d2 = sum((np.mod(np.asarray(x) - np.pi + np.pi, 2 * np.pi) - np.pi) ** 2
                     for x in xs)
            return np.where(np.sqrt(d2) >= 1.6, 1.0, 0.0)

        from lpw.symbols import separable
        L = separable(2.0, [(lambda *xs: 1.0 + chi(*xs),
                             lambda *xis: 1.0 + abs2(*xis))], "windowed")
        es = split_elliptic(L, g)
        f = random_field(g, 2, band=16)
        ref = apply(multiplier(2.0, lambda *xis: 1.0 + abs2(*xis)), f)
        assert lp_norm(apply(es.E, f) - ref, 2) <= 1e-12 * lp_norm(ref, 2)
        mf = apply(es.M, f)
        ball = g.center_distance <= 1.0
        assert np.abs(mf.physical[0][ball]).max() <= 1e-13 * lp_norm(f, math.inf)

    def test_split_consistency(self):
        g = GridSpec(1, 256)
        L = resolve_symbol("sep:twoplussin:0*pow:2")
        es = split_elliptic(L, g)
        f = random_field(g, 3, band=64)
        lhs = apply(es.E, f) + apply(es.M, f)
        rhs = apply(L, f)
        assert lp_norm(lhs - rhs, 2) <= 1e-12 * lp_norm(rhs, 2)

    def test_non_elliptic_rejected(self):
        g = GridSpec(2, 32)
        with pytest.raises(ValueError):
            split_elliptic(multiplier(1.0, lambda *xis: xis[0] + 0j), g)


class TestParametrix:
    def test_inverse_above_cutoff(self, grid1):
        part = build_partition(grid1)
        L = resolve_symbol("fractional_laplacian:1.25")
        B = split_elliptic(L, grid1).parametrix()
        f = random_field(grid1, 5)
        diff = (apply(B, apply(L, f)) - f.without_nyquist()).coefficients
        high = grid1.xi_abs >= CUTOFF
        assert np.abs(diff[0, high]).max() <= 1e-10 * lp_norm(f, 2)

    def test_defect_gains_one_order(self):
        g = GridSpec(1, 2048)
        part = build_partition(g)
        L = resolve_symbol("sep:twoplussin:0*pow:2")
        es = split_elliptic(L, g)
        B = es.parametrix()
        f = flat_dyadic_field(part, 6)
        shells = shell_norms(part, apply(B, apply(es.E, f)) - f.without_nyquist(), [2])[0][0]
        ks = range(4, part.jmax)
        fit = fit_log2_slope(ks, shells[4:part.jmax])
        assert fit.slope <= -0.8

    @pytest.mark.parametrize("spec", ["fractional_laplacian:1.25", "sep:twoplussin:0*pow:2"])
    def test_split_parametrix_without_a_scan(self, spec, monkeypatch):
        # the parametrix is built without scanning E's lower bound again,
        # which the split has scanned; it equals a fresh split's bit for bit
        g = GridSpec(2, 32)
        es = split_elliptic(resolve_symbol(spec, 2), g)
        f = random_field(g, 5)
        want = apply(split_elliptic(resolve_symbol(spec, 2), g).parametrix(), f).coefficients
        two_terms = split_elliptic(resolve_symbol("sep:twoplussin:0*pow:2+cos:1*one", 2), g)

        def unreachable(*args, **kwargs):
            raise AssertionError("the split scanned this lower bound already")

        monkeypatch.setattr(psido, "_symbol_floor", unreachable)
        assert np.array_equal(apply(es.parametrix(), f).coefficients, want)
        with pytest.raises(ValueError, match="one-term"):
            two_terms.parametrix()

    @pytest.mark.parametrize("N", [32, 64])
    def test_separable_matches_direct_quantization(self, N):
        g = GridSpec(2, N)
        B = split_elliptic(resolve_symbol("sep:twoplussin:0*pow:2", 2), g).parametrix()
        assert B.kind == "separable"
        f = random_field(g, 5)
        direct = quantize_direct(B, f)
        assert lp_norm(apply(B, f) - direct, 2) <= 1e-12 * lp_norm(direct, 2)

    def test_separable_symbol_inverts_e_above_cutoff(self):
        # b(x, xi) e(x, xi) = chi(|xi|) at every grid x and lattice xi
        g = GridSpec(2, 32)
        es = split_elliptic(resolve_symbol("sep:twoplussin:0*pow:2", 2), g)
        E, B = es.E, es.parametrix()
        xs = tuple(np.broadcast_to(a, g.shape).reshape(-1, 1) for a in g.x_axes)
        xis = tuple(np.broadcast_to(a, g.shape).reshape(1, -1) for a in g.xi_axes)
        chi = ramp_up(g.xi_abs.reshape(1, -1), CUTOFF / 2.0, CUTOFF)
        assert np.abs(B.eval_xy(xs, xis) * E.eval_xy(xs, xis) - chi).max() <= 1e-14

    def test_two_term_symbol_rejected(self):
        g = GridSpec(2, 32)
        es = split_elliptic(resolve_symbol("sep:twoplussin:0*pow:2+cos:1*one", 2), g)
        assert len(es.E.terms) == 2
        with pytest.raises(ValueError, match=re.escape(repr(es.E.name))):
            es.parametrix()

    def test_zero_of_b_off_the_scan_sample_rejected_on_apply(self):
        # the ellipticity scans sample every 4th point of 1,64 and miss the
        # zero at x = 2 pi 33 / 64, inside the unit ball about pi, where the
        # glued E keeps b; 1/b is infinite there, and apply names B
        g = GridSpec(1, 64)

        def b(x):
            return np.where(np.isclose(x, 2.0 * np.pi * 33 / 64), 0.0, 2.0 + np.sin(x))

        B = split_elliptic(separable(2.0, [(b, lambda xi: 1.0 + xi**2)], "zeroed"),
                           g).parametrix()
        with pytest.raises(ValueError, match=re.escape(repr(B.name))):
            apply(B, random_field(g, 5))

    @pytest.mark.parametrize("spec", ["sep:twoplussin:0*pow:2", "sep:cos:0*pow:1"])
    def test_x_dependent_pipeline_never_quantizes_directly(self, monkeypatch, spec):
        def unreachable(*args, **kwargs):
            raise AssertionError("the O(M^2) direct quantization sum ran")

        monkeypatch.setattr("lpw.symbols.quantize_direct", unreachable)
        g = GridSpec(2, 32)
        es = split_elliptic(resolve_symbol(spec, 2), g)
        B = es.parametrix()
        f = random_field(g, 5)
        for out in (apply(es.E, f), apply(es.M, f), apply(B, f), apply(B, apply(es.E, f))):
            assert np.all(np.isfinite(out.coefficients))

    def test_cutoff_profile(self):
        # b * l is the cutoff: 0 below CUTOFF/2, strictly between there and
        # CUTOFF, and 1 from CUTOFF on
        L = multiplier(2.0, lambda *xis: abs2(*xis), "neg_lap")
        B = split_elliptic(L, GridSpec(1, 64)).parametrix()
        r = np.array([1.0, 1.9, 3.0, 4.0, 10.0])
        chi = (B.xi_func(r) * L.xi_func(r)).real
        assert chi[[0, 1, 3, 4]].tolist() == [0.0, 0.0, 1.0, 1.0]
        assert 0.0 < chi[2] < 1.0


class TestShellRatio:
    def test_pure_mode_arithmetic(self, part1):
        m, k = 1.5, 5
        A = resolve_symbol("fractional_laplacian:0.75")
        xi0 = 2**k  # ring center
        f = mode(part1.grid, (xi0,))
        (ratio,), = ap_shell_ratios([A], part1, f, [k])
        assert (3.0 / 5.0) ** m - 1e-9 <= ratio <= (5.0 / 3.0) ** m + 1e-9
        assert abs(ratio - (xi0 / 2.0**k) ** m) <= 1e-9

    def test_identity_symbol(self, part1):
        A = multiplier(0.0, lambda *xis: np.ones(np.shape(abs2(*xis))), "id")
        f = random_field(part1.grid, 7)
        (ratio,), = ap_shell_ratios([A], part1, f, [4])
        assert ratio <= 1.0 + 1e-9

    def test_uniformity(self, part1):
        A = resolve_symbol("sep:twoplussin:0*pow:2")
        f = random_field(part1.grid, 8)
        ratios, = ap_shell_ratios([A], part1, f, range(2, part1.jmax))
        assert max(ratios) / min(ratios) <= 10.0

    def test_zero_denominator_flagged(self, part1):
        c = np.zeros(part1.grid.shape, dtype=complex)
        c[1] = 1.0  # exact single mode at xi = 1
        f = SpectralField(part1.grid, freq=c)
        (ratio,), = ap_shell_ratios([resolve_symbol("laplacian")], part1, f, [5])
        assert math.isnan(ratio)


class TestShellCommutator:
    def test_multiplier_exact_zero(self):
        g = GridSpec(1, 4096)
        part = build_partition(g)
        f = random_field(g, 9)
        assert commutator_shell(resolve_symbol("bilaplacian"), part, f, [10, 11]) == [0.0, 0.0]

    def test_requires_high_shell(self, part1):
        f = random_field(part1.grid, 9)
        with pytest.raises(ValueError):
            commutator_shell(multiplication(lambda *xs: np.cos(xs[0])), part1, f, [10, 9])

    def test_phase_shift_two_path(self):
        g = GridSpec(1, 4096)
        part = build_partition(g)
        f = flat_dyadic_field(part, 10)
        A = multiplication(lambda *xs: np.cos(xs[0] + 1.0), "phase")
        val, = commutator_shell(A, part, f, [10])
        brute = lp_norm(project(part, apply(A, f), 10) - apply(A, project(part, f, 10)), 2)
        assert abs(val - brute) <= 1e-12 * max(brute, 1.0)
        assert val > 0.0

    @pytest.mark.parametrize("ks", [list(range(10, 16)), []], ids=["shells", "none"])
    def test_bits_equal_the_inline_commutator(self, inline_transforms, ks):
        # each P_k(A f) is transformed on the helper at 2^16 points
        part = build_partition(GridSpec(1, 1 << 16))
        f = flat_dyadic_field(part, 4)
        symbols = [A for _, A in _commutator_test_symbols()]
        got = [commutator_shell(A, part, f, ks) for A in symbols]
        inline_transforms()
        want = [commutator_shell(A, part, f, ks) for A in symbols]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert [len(vals) for vals in got] == [len(ks)] * 3

    def test_shell_transforms_handed_to_the_helper(self, monkeypatch):
        # per shell, A P_k f's one term and P_k(A f); A f stays on the caller
        handed = []

        def recording(transform, src, out, _soon=grid_module._soon):
            handed.append(out.shape)
            return _soon(transform, src, out)

        part = build_partition(GridSpec(1, 1 << 16))
        f = flat_dyadic_field(part, 13)
        monkeypatch.setattr(grid_module, "_soon", recording)
        commutator_shell(resolve_symbol("sep:cos:0*pow:1"), part, f, list(range(10, 15)))
        assert handed == [(1, 1 << 16)] * 10

    @pytest.mark.parametrize("ks", [[10], list(range(10, 15))], ids=["one", "five"])
    def test_symbol_evaluated_once(self, ks):
        # b(x) and c(xi) serve f and every P_k f (each was evaluated 6 times
        # for 5 shells when every A P_k f evaluated them again)
        seen = Counter()

        def b(*xs):
            seen["b"] += 1
            return np.cos(xs[0])

        def c(*xis):
            seen["c"] += 1
            return (1.0 + abs2(*xis)) ** 0.5

        part = build_partition(GridSpec(1, 1 << 15))
        f = flat_dyadic_field(part, 12)
        assert len(commutator_shell(separable(1.0, [(b, c)], "counted"), part, f, ks)) == len(ks)
        assert seen == {"b": 1, "c": 1}

    def test_order_one_slope(self):
        g = GridSpec(1, 1 << 14)
        part = build_partition(g)
        f = flat_dyadic_field(part, 11)
        A = resolve_symbol("sep:cos:0*abspow:1")  # cos(x)|xi|
        ks = list(range(10, part.jmax))
        vals = commutator_shell(A, part, f, ks)
        fit = fit_log2_slope(ks, vals)
        assert fit.slope <= 0.2


class TestSymbolRemainder:
    def test_multiplier_identically_zero(self, grid1):
        rep = commutator_symbol_remainder(resolve_symbol("laplacian"), grid1, 8)
        assert rep.regime1_normalized == 0.0
        assert rep.regime2_max == 0.0
        assert rep.regime3_max == 0.0

    def test_phase_symbol_regime3_collapse(self, grid1):
        A = multiplication(lambda *xs: np.exp(1j * xs[0]), "phase")
        r8 = commutator_symbol_remainder(A, grid1, 8).regime3_max
        r10 = commutator_symbol_remainder(A, grid1, 10).regime3_max
        # super-decay: either a genuine >= 2^8 drop per unit k or both at the floor
        assert r10 <= max(r8 / 2.0**16, 1e-13)

    def test_regime1_stability(self, grid1):
        A = resolve_symbol("sep:cos:0*pow:1")
        vals = [commutator_symbol_remainder(A, grid1, k).regime1_normalized
                for k in range(8, 13)]
        assert max(vals) / min(vals) <= 10.0


class TestCutoffCommutator:
    def test_unit_cutoff_commutes(self, part2):
        one = SpectralField(part2.grid, phys=np.ones(part2.grid.shape))
        A = multiplier(0.0, lambda *xis: 1.0 / (1.0 + abs2(*xis)), "sm")
        f = random_field(part2.grid, 13, band=16)
        comm = cutoff_commutator(A, one, f)
        assert lp_norm(comm, 2) <= 1e-13 * lp_norm(f, 2)

    def test_leibniz_identity(self, part2):
        from lpw.lp import project_window
        g = part2.grid
        neg_lap = multiplier(2.0, lambda *xis: abs2(*xis), "neg_lap")
        lap = multiplier(2.0, lambda *xis: -abs2(*xis), "lap")
        f = random_field(g, 14, band=8)
        eta = project_window(part2, cutoff_field(g, 0.6), 0, 3)  # band-limited
        comm = cutoff_commutator(neg_lap, eta, f)
        cross = None
        for c in range(2):
            t = grid_product(apply(grad_symbol(c), eta), apply(grad_symbol(c), f))
            cross = t if cross is None else cross + t
        leibniz = grid_product(apply(lap, eta), f) + 2.0 * cross
        assert lp_norm(comm - leibniz, 2) <= 1e-10 * lp_norm(comm, 2)

    def test_order_two_slope(self):
        g = GridSpec(1, 4096)
        part = build_partition(g)
        f = flat_dyadic_field(part, 15)
        eta = cutoff_field(g, 0.6)
        A = multiplier(2.0, lambda *xis: 1.0 + abs2(*xis), "onepluslap")
        ks = range(3, part.jmax)
        shells = shell_norms(part, cutoff_commutator(A, eta, f), [2])[0][0]
        assert fit_log2_slope(ks, shells[3:part.jmax]).slope <= 1.2


class TestMappingProperty:
    def test_constant_stability(self, grid1):
        part = build_partition(grid1)
        f = random_field(grid1, 16, radial_profile=lambda r: 1.0 / (1.0 + r))
        symbols = [resolve_symbol(name) for name in ("laplacian", "sep:cos:0*pow:1")]
        pairs = [(s, p) for s in (0.0, 1.0, 2.0) for p in (1.5, 2.0, 3.0)]
        per_symbol = mapping_constants(symbols, part, f, pairs)
        assert [len(consts) for consts in per_symbol] == [len(pairs)] * len(symbols)
        for consts in per_symbol:
            assert all(math.isfinite(c) for c in consts)
            assert max(consts) / min(consts) <= 10.0
