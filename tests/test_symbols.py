import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpw.grid import GridSpec, SpectralField, lp_norm, random_field
from lpw.symbols import (apply, divergence_symbol, grad_symbol, gradient_symbol,
                         leray_projector, multiplication, multiplier, quantize_direct,
                         resolve_symbol, separable)

from test_grid import mode


class TestApplyPaths:
    def test_multiplier_on_pure_mode(self, grid2):
        neg_lap = multiplier(2.0, lambda *xis: sum(np.asarray(a) ** 2 for a in xis))
        f = mode(grid2, (3, -4))
        out = apply(neg_lap, f)
        assert lp_norm(out - 25.0 * f, 2) <= 1e-12 * 25.0

    def test_multiplication_is_pointwise(self, grid2):
        b = multiplication(lambda *xs: np.cos(xs[0]) + 2.0)
        f = random_field(grid2, 3, band=20)
        out = apply(b, f)
        expect = f.physical * (np.cos(np.broadcast_to(grid2.x_axes[0], grid2.shape)) + 2.0)
        assert np.abs(out.physical - expect).max() <= 1e-13

    def test_separable_matches_direct(self):
        g = GridSpec(1, 64)
        sep = resolve_symbol("sep:cos:0*abspow:1")  # cos(x)|xi|
        f = random_field(g, 5, band=24)
        fast = apply(sep, f)
        direct = quantize_direct(sep, f)
        assert lp_norm(fast - direct, 2) <= 1e-12 * lp_norm(f, 2)

    def test_multiplier_matches_direct(self):
        g = GridSpec(1, 32)
        A = resolve_symbol("fractional_laplacian:0.75")
        f = random_field(g, 6)
        assert lp_norm(apply(A, f) - quantize_direct(A, f), 2) <= 1e-12 * lp_norm(f, 2)

    def test_linearity(self, grid2):
        A = resolve_symbol("sep:twoplussin:0*pow:1")
        f = random_field(grid2, 7, band=16)
        g = random_field(grid2, 8, band=16)
        lhs = apply(A, f + 2.0 * g)
        rhs = apply(A, f) + 2.0 * apply(A, g)
        assert lp_norm(lhs - rhs, 2) <= 1e-12 * lp_norm(lhs, 2)

    def test_nyquist_cleared(self):
        g = GridSpec(1, 32)
        c = np.zeros(g.shape, dtype=complex)
        c[16] = 1.0  # the -N/2 mode
        f = SpectralField(g, freq=c)
        out = apply(multiplier(0.0, lambda *xis: np.ones_like(xis[0])), f)
        assert lp_norm(out, 2) == 0.0

    def test_order_overflow(self):
        g = GridSpec(1, 64)
        A = multiplier(250.0, lambda *xis: np.abs(xis[0]) ** 250.0)
        with pytest.raises(ValueError):
            apply(A, random_field(g, 1))

    def test_declared_order_bound(self, grid1):
        # sampled |a| / (1+|xi|)^m stays bounded for the registry symbols
        for name in ("laplacian", "bilaplacian", "fractional_laplacian:0.75",
                     "grad:0", "sep:twoplussin:0*pow:2"):
            A = resolve_symbol(name)
            if A.kind == "multiplier":
                vals = np.abs(np.asarray(A.xi_func(*grid1.xi_axes)))
            else:
                vals = np.abs(A.eval_xy((grid1.x_axes[0],), grid1.xi_axes))
            ratio = vals / (1.0 + grid1.xi_abs) ** A.order
            assert ratio.max() <= 4.0


class TestMatrixSymbols:
    def test_divergence_of_gradient_is_laplacian(self, grid2):
        f = random_field(grid2, 9, band=16)
        grad = np.stack([apply(grad_symbol(c), f).coefficients[0] for c in range(2)])
        gf = SpectralField(grid2, freq=grad)
        div = apply(divergence_symbol(), gf)
        lap = apply(multiplier(2.0, lambda *xis: -sum(np.asarray(a) ** 2 for a in xis)), f)
        assert lp_norm(div - lap, 2) <= 1e-12 * lp_norm(lap, 2)

    def test_component_mismatch(self, grid2):
        with pytest.raises(ValueError):
            apply(divergence_symbol(), random_field(grid2, 1, ncomp=3))


def _einsum_reference(name: str, f: SpectralField) -> np.ndarray:
    """The coefficients of `name` applied to f as einsum over the full
    (out, in, *shape) matrix, or the symbol's values times the coefficients,
    with f's Nyquist modes cleared first."""
    g = f.grid
    c = f.coefficients.copy()
    c[:, g.nyquist_mask] = 0.0
    xi, n = g.xi_axes, g.dim
    if name == "leray":
        abs2 = g.xi_abs2()
        denom = np.where(abs2 > 0, abs2, 1.0)
        mat = np.zeros((n, n) + g.shape)
        for a in range(n):
            for b in range(n):
                mat[a, b] = (1.0 if a == b else 0.0) - np.broadcast_to(xi[a] * xi[b], g.shape) / denom
        return np.einsum("oi...,i...->o...", mat, c)
    ixi = np.stack([np.broadcast_to(1j * a, g.shape) for a in xi])
    if name == "div":
        return np.einsum("oi...,i...->o...", ixi[np.newaxis], c)
    if name == "grad_vector":
        return np.einsum("oi...,i...->o...", ixi[:, np.newaxis], c)
    if name == "laplacian":
        return c * -(np.sqrt(g.xi_abs2()) ** 2)
    if name == "bilaplacian":
        return c * np.sqrt(g.xi_abs2()) ** 4
    assert name == "grad:1"
    return c * (1j * xi[1])


class TestApplyInPlace:
    @pytest.mark.parametrize("dim,N", [(2, 64), (2, 256), (3, 32)])
    @pytest.mark.parametrize("name", ["leray", "grad_vector", "div", "laplacian",
                                      "bilaplacian", "grad:1"])
    def test_matches_einsum_over_the_full_matrix(self, dim, N, name):
        g = GridSpec(dim, N)
        f = random_field(g, 5, ncomp=dim if name in ("leray", "div") else 1, mean_zero=False)
        c = f.coefficients + (0.25 - 0.5j)  # nonzero Nyquist modes, to be cleared
        f = SpectralField(g, freq=c)
        A = gradient_symbol() if name == "grad_vector" else resolve_symbol(name, dim)
        assert np.array_equal(apply(A, f).coefficients, _einsum_reference(name, f))
        assert np.array_equal(f.coefficients, c)  # the input is not written

    @pytest.mark.parametrize("name,bound", [("laplacian", 3.3e6), ("div", 3.3e6),
                                            ("leray", 6.0e6)])
    def test_peak_memory(self, name, bound):
        # a 2-component 2,256 field's coefficients are 2.1 MB; copying the input
        # and building the stacked i*xi or the (n, n, *shape) matrix for einsum
        # peaked at 4.85 (laplacian), 5.24 (div) and 6.42 MB (leray)
        A = resolve_symbol(name, 2)
        u = random_field(GridSpec(2, 256), 4, ncomp=2)
        apply(A, u)  # the lattice's frequency axes are cached on first use
        tracemalloc.start()
        try:
            apply(A, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestLeray:
    def test_kills_gradients(self, grid2):
        g = random_field(grid2, 10)  # mean zero
        gradf = SpectralField(grid2, freq=np.stack(
            [apply(grad_symbol(c), g).coefficients[0] for c in range(2)]))
        out = apply(leray_projector(), gradf)
        assert lp_norm(out, 2) <= 1e-12 * lp_norm(gradf, 2)

    def test_fixes_divergence_free(self, grid2):
        u = random_field(grid2, 11, ncomp=2)
        P = leray_projector()
        df = apply(P, u)
        again = apply(P, df)
        assert lp_norm(again - df, 2) <= 1e-12 * lp_norm(df, 2)
        div = apply(divergence_symbol(), df)
        assert lp_norm(div, 2) <= 1e-11 * lp_norm(df, 2)

    def test_symmetry(self, grid2):
        rows = [list(row) for row in leray_projector().matrix_func(grid2)]
        for c in range(2):
            for d in range(2):
                assert np.abs(rows[c][d] - rows[d][c]).max() <= 1e-14

    def test_needs_two_dims(self):
        g = GridSpec(1, 32)
        with pytest.raises(ValueError):
            apply(leray_projector(), random_field(g, 1))


class TestRegistry:
    def test_known_names(self):
        for name in ("laplacian", "bilaplacian", "div", "leray",
                     "fractional_laplacian:1.5", "grad:1",
                     "sep:one*pow:1", "sep:cos:0*abspow:1+sin:0*one"):
            assert resolve_symbol(name) is not None

    def test_orders(self):
        assert resolve_symbol("laplacian").order == 2.0
        assert resolve_symbol("bilaplacian").order == 4.0
        assert resolve_symbol("fractional_laplacian:1.5").order == 3.0
        assert resolve_symbol("sep:one*pow:2+one*abspow:1").order == 2.0
        assert resolve_symbol("sep:one*pow:-2").order == -2.0
        assert resolve_symbol("sep:one*pow:-2+cos:0*pow:-1").order == -1.0

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            resolve_symbol("heat_kernel")
        with pytest.raises(ValueError):
            resolve_symbol("sep:cos:0")  # missing frequency part
        with pytest.raises(ValueError):
            resolve_symbol("sep:tan:0*pow:1")

    def test_separable_term_budget(self):
        terms = [(lambda *xs: np.ones(np.shape(xs[0])),
                  lambda *xis: np.ones(np.shape(xis[0])))] * 9
        with pytest.raises(ValueError):
            separable(0.0, terms)


# valid registry specs for fields on a 2-D grid, numbers written as a user might
_AXIS = st.sampled_from(("0", "1"))
_ORDER = st.one_of(st.integers(0, 4).map(str), st.floats(0.0, 4.0).map(repr))
_XPART = st.one_of(st.just("one"), st.builds("{}:{}".format,
                                             st.sampled_from(("cos", "sin", "twoplussin")), _AXIS),
                   st.floats(0.05, 3.0).map(lambda r: f"bump:{r!r}"))
_XIPART = st.one_of(st.just("one"), st.builds("pow:{}".format, _ORDER),
                    st.floats(-4.0, 0.0).map(lambda m: f"pow:{m!r}"),
                    st.builds("abspow:{}".format, _ORDER), st.builds("ixi:{}".format, _AXIS))
_TERM = st.builds("{}*{}".format, _XPART, _XIPART)
_SPEC = st.one_of(
    st.sampled_from(("laplacian", "bilaplacian", "div", "leray")),
    st.builds("fractional_laplacian:{}".format, st.floats(0.0, 2.0).map(repr)),
    st.builds("grad:{}".format, _AXIS),
    st.lists(_TERM, min_size=1, max_size=3).map(lambda ts: "sep:" + "+".join(ts)))
_GRID16 = GridSpec(2, 16)


def _field_for(A):
    return random_field(_GRID16, 5, ncomp=2 if A.name in ("div", "leray") else 1)


class TestRegistryProperties:
    @given(_SPEC)
    @settings(max_examples=150, deadline=None)
    def test_name_re_resolves(self, spec):
        A = resolve_symbol(spec, 2)
        B = resolve_symbol(A.name, 2)
        assert B.name == A.name and B.order == A.order
        f = _field_for(A)
        assert np.array_equal(apply(A, f).physical, apply(B, f).physical)

    @given(_SPEC, st.lists(st.tuples(st.sampled_from(("insert", "delete", "replace")),
                                     st.integers(0, 60), st.sampled_from(":*+-.e019_ axnf")),
                           min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_mutated_spec_raises_only_value_or_key_error(self, spec, edits):
        for op, at, ch in edits:
            at = at % (len(spec) + 1)
            if op == "insert":
                spec = spec[:at] + ch + spec[at:]
            else:
                spec = spec[:at] + (ch if op == "replace" else "") + spec[at + 1:]
        try:
            resolve_symbol(spec, 2)
        except (ValueError, KeyError):
            pass

    def test_rejects_what_a_lattice_cannot_take(self):
        for spec in ("grad:-1", "grad:2", "grad:1.0", "sep:cos:-1*pow:1", "sep:cos:1.5*one",
                     "sep:one*ixi:2", "sep:bump:-0.5*one", "sep:bump:0*one",
                     "sep:bump:inf*one", "fractional_laplacian:nan",
                     "fractional_laplacian:inf", "fractional_laplacian:1e308",
                     "sep:one*abspow:nan", "sep:one*abspow:-1", "fractional_laplacian:-0.5",
                     "sep:one*pow:x", "sep:" + "+".join(["one*one"] * 9)):
            with pytest.raises(ValueError, match=re.escape(repr(spec))):
                resolve_symbol(spec, 2)
