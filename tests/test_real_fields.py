"""Real fields: seeded coefficients are Hermitian bit for bit, samples are
float64, and input that the real path would silently drop is rejected."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpw import rng
from lpw.grid import (GridSpec, SpectralField, dealiased_product, l2_norm, lp_norm, padded_physical,
                      random_field)
from lpw.lp import (build_partition, flat_dyadic_field, project, shell_norms, shell_packet,
                    shell_sum_field)
from lpw.probe import equation_spec, smooth_forcing
from lpw.psido import commutator_shell, split_elliptic
from lpw.symbols import apply, multiplication, multiplier, quantize_direct, separable

from test_grid import negated


def _assert_hermitian(f: SpectralField) -> None:
    """c_xi == conj(c_(-xi)) exactly, at every lattice point, and real samples."""
    c = f.coefficients
    assert np.array_equal(c, np.conj(negated(c)))
    assert f.physical.dtype == np.float64


def _profile(r):
    return (1.0 + r) ** -1.3


def _draws(dim, N, seed):
    """Every kind of seeded field on one grid."""
    grid = GridSpec(dim, N)
    part = build_partition(grid)
    fields = {f"random:ncomp={ncomp}": random_field(grid, seed, ncomp=ncomp)
              for ncomp in (1, 3)}
    fields["random:band"] = random_field(grid, seed, band=N / 4, mean_zero=False)
    fields["random:profile"] = random_field(grid, seed, ncomp=3, radial_profile=_profile)
    for j in (1, part.jmax):
        for coherent in (True, False):
            fields[f"packet:{j}:{coherent}"] = shell_packet(part, j, seed, coherent=coherent)
    fields["shell_sum:3"] = shell_sum_field(part, {j: 2.0 ** -j for j in range(part.jmax + 1)},
                                            seed, norm_p=3.0)
    fields["flat"] = flat_dyadic_field(part, seed)
    return fields


class TestHermitianDraws:
    @pytest.mark.parametrize("dim,N", [(1, 256), (2, 64), (3, 16)])
    def test_every_draw_is_hermitian(self, dim, N):
        for name, f in _draws(dim, N, 5).items():
            assert f.coefficients.any(), name
            _assert_hermitian(f)

    @pytest.mark.parametrize("kind,dim,N", [("ns", 2, 64), ("biharmonic", 2, 64),
                                            ("gjms", 3, 16)])
    def test_forcing_is_hermitian(self, kind, dim, N):
        _assert_hermitian(smooth_forcing(equation_spec(kind, n=dim), GridSpec(dim, N), 7))

    def test_coherent_packet_is_a_cosine_sum(self):
        # real, nonnegative amplitudes with zero phase: c_xi == c_(-xi)
        part = build_partition(GridSpec(2, 64))
        c = shell_packet(part, 3, 9, coherent=True).coefficients
        assert not c.imag.any() and (c.real >= 0.0).all()
        assert np.array_equal(c, negated(c))

    def test_kept_half_keeps_the_whole_lattice_draw(self):
        # rng's layout: entries at last-axis frequencies 1..N/2-1 keep the
        # values of a whole-lattice draw (but on the cleared Nyquist row);
        # the mirrored ones are their conjugates
        grid = GridSpec(2, 32)
        raw = rng.complex_samples(4, grid.npoints).reshape((1,) + grid.shape)
        raw[:, 16] = 0.0
        c = random_field(grid, 4, mean_zero=False).coefficients
        assert np.array_equal(c[..., 1:16], raw[..., 1:16])
        assert np.array_equal(c[..., 17:], np.conj(negated(c))[..., 17:])

    @pytest.mark.parametrize("dim,N", [(1, 256), (2, 64), (3, 16)])
    def test_same_bits_in_small_blocks(self, monkeypatch, dim, N):
        want = {name: f.coefficients.tobytes() for name, f in _draws(dim, N, 6).items()}
        monkeypatch.setattr(rng, "_BLOCK", 7)
        got = {name: f.coefficients.tobytes() for name, f in _draws(dim, N, 6).items()}
        assert got == want

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_hermitian_for_any_grid_and_seed(self, data):
        dim = data.draw(st.integers(1, 3))
        N = data.draw(st.sampled_from((16,) if dim == 3 else (16, 32, 64)))
        seed = data.draw(st.integers(0, 2**64 - 1))
        grid = GridSpec(dim, N)
        f = random_field(grid, seed, ncomp=data.draw(st.integers(1, 3)),
                         band=data.draw(st.one_of(st.none(), st.floats(1.0, N / 2))),
                         mean_zero=data.draw(st.booleans()))
        _assert_hermitian(f)
        part = build_partition(grid)
        j = data.draw(st.integers(0, part.jmax))
        _assert_hermitian(shell_packet(part, j, seed, coherent=data.draw(st.booleans())))


class TestRejectsComplexInput:
    def test_complex_samples(self):
        grid = GridSpec(1, 32)
        with pytest.raises(ValueError, match=r"samples must be real: imaginary part up to 0\.5"):
            SpectralField(grid, phys=np.full(grid.shape, 1.0 + 0.5j))
        z = np.full(grid.shape, 2.0 + 0j)  # a zero imaginary part
        f = SpectralField(grid, phys=z)
        assert f.physical.dtype == np.float64 and (f.physical == 2.0).all()
        assert f.physical.flags.c_contiguous and not np.shares_memory(f.physical, z)

    def test_non_real_scalar(self):
        f = random_field(GridSpec(1, 32), 1)
        with pytest.raises(ValueError, match=re.escape("scalar factor (1+2j)")):
            f * (1 + 2j)
        with pytest.raises(ValueError, match="scalar factor"):
            np.complex128(0.5j) * f
        assert np.array_equal((f * (3 + 0j)).coefficients, (f * 3.0).coefficients)

    def test_separable_x_part_not_real(self):
        grid = GridSpec(1, 64)
        f = random_field(grid, 2)
        phase = multiplication(lambda *xs: np.exp(1j * xs[0]), "phase")
        with pytest.raises(ValueError, match="x part of symbol 'phase' must be real"):
            apply(phase, f)
        part = build_partition(GridSpec(1, 4096))
        with pytest.raises(ValueError, match="x part of symbol 'phase' must be real"):
            commutator_shell(phase, part, flat_dyadic_field(part, 3), [10])

    def test_split_elliptic_reads_a_real_center_value(self):
        # the frozen-center value b(x_c) is read as a real number
        L = separable(2.0, [(lambda *xs: 2.0 + 1j * np.cos(xs[0]),
                             lambda *xis: 1.0 + sum(a * a for a in xis))], "complexb")
        with pytest.raises(ValueError, match="x part of symbol 'complexb' must be real"):
            split_elliptic(L, GridSpec(1, 64))

    def test_quantize_direct_rejects_a_non_real_symbol(self):
        f = random_field(GridSpec(1, 32), 3)
        with pytest.raises(ValueError, match="'times_i' does not map real fields"):
            quantize_direct(multiplier(0.0, lambda *xis: 1j + 0.0 * xis[0], "times_i"), f)
        out = quantize_direct(multiplier(2.0, lambda *xis: xis[0] ** 2, "xi2"), f)
        assert out.physical.dtype == np.float64 and out.physical.flags.c_contiguous


def test_padding_splits_the_nyquist_planes_evenly():
    # a real field with content at -N/2 (here cos(16 x_0) times a smooth
    # field) is padded as the real interpolant that gives its own samples
    # back at the points the two grids share: every 2nd coarse point is
    # every 3rd point of the 48-point grid
    grid = GridSpec(2, 32)
    x = np.broadcast_to(grid.x_axes[0], grid.shape)
    f = SpectralField(grid, phys=np.cos(16 * x) * random_field(grid, 8, band=4).physical[0])
    assert np.abs(f.coefficients[0, 16]).max() > 0.01
    fine = padded_physical(f)
    assert fine.shape == (1, 48, 48) and fine.dtype == np.float64
    assert np.abs(fine[:, ::3, ::3] - f.physical[:, ::2, ::2]).max() <= 1e-13


@pytest.mark.parametrize("dim,N", [(1, 64), (2, 128), (3, 32)])
def test_product_coefficients_read_the_norm_of_its_samples(dim, N):
    # a product truncated from the 3/2 grid keeps that grid's coefficients at
    # -N/2, which are not Hermitian there; the L^2 norms read from its
    # coefficients, whole and of its top shell, are those of its samples
    part = build_partition(GridSpec(dim, N))
    V, w = random_field(part.grid, 60, ncomp=3), random_field(part.grid, 61, ncomp=3)
    f = dealiased_product(V, w)
    c = f.coefficients
    assert not np.array_equal(c, np.conj(negated(c)))
    assert l2_norm(f) == pytest.approx(lp_norm(f, 2), rel=1e-13, abs=0)
    top = project(part, f, part.jmax)
    (norms,) = shell_norms(part, f, [2.0])[0]
    assert norms[-1] == pytest.approx(lp_norm(top, 2), rel=1e-13, abs=0)
    assert l2_norm(top) == pytest.approx(lp_norm(top, 2), rel=1e-13, abs=0)
