import math

import numpy as np
import pytest

from lpw.grid import GridSpec, SpectralField, lp_norm, random_field
from lpw.lp import build_partition, flat_dyadic_field, project
from lpw.probe import cutoff_field
from lpw.psido import (ap_shell_ratio, commutator_shell, commutator_symbol_remainder,
                       commutator_window_bound, cutoff_commutator_field,
                       cutoff_commutator_order, ellipticity_margin, fit_log2_slope,
                       low_cutoff, mapping_constant, parametrix,
                       parametrix_defect_shells, split_elliptic)
from lpw.symbols import apply, grad_symbol, multiplication, multiplier, resolve_symbol

from test_grid import mode


def abs2(*xis):
    return sum(np.asarray(a) ** 2 for a in xis)


class TestEllipticity:
    def test_pure_power(self, grid1):
        A = resolve_symbol("fractional_laplacian:1")  # |xi|^2
        assert abs(ellipticity_margin(A, grid1, C2=4.0) - 1.0) <= 1e-12

    def test_directional_symbol_not_elliptic(self):
        g = GridSpec(2, 32)
        A = multiplier(1.0, lambda *xis: xis[0] + 0j, "xi1")
        assert ellipticity_margin(A, g, C2=4.0) == 0.0

    def test_variable_coefficient_scan(self, grid1):
        A = resolve_symbol("sep:twoplussin:0*pow:2")
        margin = ellipticity_margin(A, grid1, C2=4.0)
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
    def test_exact_inverse_no_cutoff(self, grid1):
        L = multiplier(2.0, lambda *xis: (1.0 + abs2(*xis)), "m")
        B = parametrix(L, grid1, C2=0.0)
        f = random_field(grid1, 4)
        out = apply(B, apply(L, f))
        assert lp_norm(out - f.without_nyquist(), 2) <= 1e-10 * lp_norm(f, 2)

    def test_inverse_above_cutoff(self, grid1):
        part = build_partition(grid1)
        L = resolve_symbol("fractional_laplacian:1.25")
        B = parametrix(L, grid1, C2=4.0)
        f = random_field(grid1, 5)
        diff = (apply(B, apply(L, f)) - f.without_nyquist()).coefficients
        high = grid1.xi_abs >= 4.0
        assert np.abs(diff[0, high]).max() <= 1e-10 * lp_norm(f, 2)

    def test_defect_gains_one_order(self):
        g = GridSpec(1, 2048)
        part = build_partition(g)
        L = resolve_symbol("sep:twoplussin:0*pow:2")
        es = split_elliptic(L, g)
        B = parametrix(es.E, g, C2=4.0)
        f = flat_dyadic_field(part, 6)
        shells = parametrix_defect_shells(es.E, B, part, f)
        ks = range(4, part.jmax)
        fit = fit_log2_slope(ks, [shells[k] for k in ks])
        assert fit.slope <= -0.8

    def test_no_lower_bound_rejected(self):
        g = GridSpec(2, 32)
        with pytest.raises(ValueError):
            parametrix(multiplier(1.0, lambda *xis: xis[0] + 0j), g)

    def test_cutoff_profile(self):
        chi = low_cutoff(4.0)
        assert chi(np.array([1.9, 4.0, 10.0])).tolist() == [0.0, 1.0, 1.0]
        assert low_cutoff(0.0)(np.array([0.0, 3.0])).tolist() == [1.0, 1.0]


class TestShellRatio:
    def test_pure_mode_arithmetic(self, part1):
        m, k = 1.5, 5
        A = resolve_symbol("fractional_laplacian:0.75")
        xi0 = 2**k  # ring center
        f = mode(part1.grid, (xi0,))
        ratio = ap_shell_ratio(A, part1, f, k, 2)
        assert (3.0 / 5.0) ** m - 1e-9 <= ratio <= (5.0 / 3.0) ** m + 1e-9
        assert abs(ratio - (xi0 / 2.0**k) ** m) <= 1e-9

    def test_identity_symbol(self, part1):
        A = multiplier(0.0, lambda *xis: np.ones(np.shape(abs2(*xis))), "id")
        f = random_field(part1.grid, 7)
        ratio = ap_shell_ratio(A, part1, f, 4, 2)
        assert ratio <= 1.0 + 1e-9

    def test_uniformity(self, part1):
        A = resolve_symbol("sep:twoplussin:0*pow:2")
        f = random_field(part1.grid, 8)
        ratios = [ap_shell_ratio(A, part1, f, k, 2) for k in range(2, part1.jmax)]
        assert max(ratios) / min(ratios) <= 10.0

    def test_zero_denominator_flagged(self, part1):
        c = np.zeros(part1.grid.shape, dtype=complex)
        c[1] = 1.0  # exact single mode at xi = 1
        f = SpectralField(part1.grid, freq=c)
        assert math.isnan(ap_shell_ratio(resolve_symbol("laplacian"), part1, f, 5, 2))


class TestShellCommutator:
    def test_multiplier_exact_zero(self):
        g = GridSpec(1, 4096)
        part = build_partition(g)
        f = random_field(g, 9)
        assert commutator_shell(resolve_symbol("bilaplacian"), part, f, [10, 11], 2) == [0.0, 0.0]

    def test_requires_high_shell(self, part1):
        f = random_field(part1.grid, 9)
        with pytest.raises(ValueError):
            commutator_shell(multiplication(lambda *xs: np.cos(xs[0])), part1, f, [10, 9], 2)

    def test_phase_shift_two_path(self):
        g = GridSpec(1, 4096)
        part = build_partition(g)
        f = flat_dyadic_field(part, 10)
        A = multiplication(lambda *xs: np.exp(1j * xs[0]), "phase")
        val, = commutator_shell(A, part, f, [10], 2)
        brute = lp_norm(project(part, apply(A, f), 10) - apply(A, project(part, f, 10)), 2)
        assert abs(val - brute) <= 1e-12 * max(brute, 1.0)
        assert val > 0.0

    def test_order_one_slope(self):
        g = GridSpec(1, 1 << 14)
        part = build_partition(g)
        f = flat_dyadic_field(part, 11)
        A = resolve_symbol("sep:cos:0*abspow:1")  # cos(x)|xi|
        ks = list(range(10, part.jmax))
        vals = commutator_shell(A, part, f, ks, 2)
        fit = fit_log2_slope(ks, vals)
        assert fit.slope <= 0.2

    def test_dominated_by_window_bound(self):
        g = GridSpec(1, 1 << 14)
        part = build_partition(g)
        f = flat_dyadic_field(part, 12)
        A = resolve_symbol("sep:cos:0*pow:1")
        ks = list(range(10, part.jmax))
        ratios = [val / commutator_window_bound(A, part, f, k, 2)
                  for k, val in zip(ks, commutator_shell(A, part, f, ks, 2))]
        assert max(ratios) / min(ratios) <= 4.0  # constant uniform in k


class TestSymbolRemainder:
    def test_multiplier_identically_zero(self, grid1):
        rep = commutator_symbol_remainder(resolve_symbol("laplacian"), grid1, 8)
        assert rep.regime1_max == 0.0
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
        comm = cutoff_commutator_field(A, one, f)
        assert lp_norm(comm, 2) <= 1e-13 * lp_norm(f, 2)

    def test_leibniz_identity(self, part2):
        from lpw.lp import project_window
        g = part2.grid
        neg_lap = multiplier(2.0, lambda *xis: abs2(*xis), "neg_lap")
        lap = multiplier(2.0, lambda *xis: -abs2(*xis), "lap")
        f = random_field(g, 14, band=8)
        eta = project_window(part2, cutoff_field(g, 0.6), 0, 3)  # band-limited
        comm = cutoff_commutator_field(neg_lap, eta, f)
        from lpw.grid import grid_product
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
        rep = cutoff_commutator_order(A, eta, f, part, k_lo=3)
        assert rep.slope <= 1.2


class TestMappingProperty:
    def test_constant_stability(self, grid1):
        part = build_partition(grid1)
        f = random_field(grid1, 16, radial_profile=lambda r: 1.0 / (1.0 + r))
        for name in ("laplacian", "sep:cos:0*pow:1"):
            A = resolve_symbol(name)
            consts = mapping_constant(A, part, f, [(s, p) for s in (0.0, 1.0, 2.0)
                                                   for p in (1.5, 2.0, 3.0)])
            assert all(math.isfinite(c) for c in consts)
            assert max(consts) / min(consts) <= 10.0
