import math
import struct
import sys
from collections import Counter

import numpy as np
import pytest

from lpw.grid import (GridSpec, SpectralField, dot_product, grid_product, lp_norm,
                      pointwise_product, random_field, read_field, write_field)
from lpw.exponents import RegularityParams
from lpw.lp import build_partition, flat_dyadic_field
from lpw.paraproduct import split, zone_estimate_report
from lpw.probe import equation_spec
from lpw.psido import commutator_shell, commutator_symbol_remainder, mapping_constant
from lpw.symbols import apply, multiplier, resolve_symbol


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

    def test_representation_consistency(self, grid2):
        f = random_field(grid2, 12)
        both = SpectralField(grid2, phys=f.physical, freq=f.coefficients)
        assert both.representation_error() <= 1e-12


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

    def test_split(self, calls, grid2, part2):
        split(random_field(grid2, 1), random_field(grid2, 2), 3, part2)
        assert calls == {("fftn", "_forward"): 1, ("ifftn", "_inverse"): 4}

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
        # split at k=3 pads 4 windows and transforms 1 product back; ||V||_q and
        # the norms of the four zone fields take 1 inverse each
        assert calls == {("fftn", "_forward"): 1,
                         ("ifftn", "_inverse"): 4 + 1 + 4 + part1.jmax + 1}

    def test_mapping_splits_each_field_once(self, calls, part1):
        f = random_field(part1.grid, 7)
        pairs = [(s, p) for s in (0.0, 1.0) for p in (1.5, 3.0)]
        assert len(mapping_constant(resolve_symbol("laplacian"), part1, f, pairs)) == 4
        assert calls == {("ifftn", "_inverse"): 2 * (part1.jmax + 1)}  # f and A f

    def test_commutator_applies_once(self, calls):
        part = build_partition(GridSpec(1, 4096))
        f = flat_dyadic_field(part, 8)
        calls.clear()
        commutator_shell(resolve_symbol("sep:cos:0*pow:1"), part, f, [10, 11], 2)
        # A f once (1 inverse, 1 forward); per shell A P_k f (1 inverse, 1
        # forward for the difference) and the norm (1 inverse)
        assert calls == {("ifftn", "_inverse"): 1 + 2 * 2, ("fftn", "_forward"): 1 + 2}


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

    def test_p_below_one_rejected(self, grid2):
        with pytest.raises(ValueError):
            lp_norm(random_field(grid2, 1), 0.5)


class TestProducts:
    def test_identity(self, grid2):
        f = random_field(grid2, 14, band=20)
        one = SpectralField(grid2, phys=np.ones(grid2.shape))
        g = pointwise_product(f, one)
        assert lp_norm(g - f, 2) <= 1e-12 * lp_norm(f, 2)

    def test_mode_addition(self, grid2):
        f = pointwise_product(mode(grid2, (3, 1)), mode(grid2, (-1, 4)))
        expect = mode(grid2, (2, 5))
        assert lp_norm(f - expect, 2) <= 1e-12

    def test_convolution_oracle(self):
        g = GridSpec(1, 32)
        a = random_field(g, 5, band=10)
        b = random_field(g, 6, band=10)
        prod = pointwise_product(a, b)
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
        prod = pointwise_product(a, b)
        outside = grid2.xi_abs > 12.0 + 1e-9
        leak = np.abs(prod.coefficients[0, outside]).max()
        assert leak <= 1e-12 * lp_norm(a, 2) * lp_norm(b, 2)

    def test_cubic_rule_exact(self):
        # triple product of modes at the band edge resolves with degree=3
        g = GridSpec(1, 32)
        m = mode(g, (5,))
        sq = pointwise_product(m, m, degree=3)
        cube = pointwise_product(sq, m, degree=3)
        assert lp_norm(cube - mode(g, (15,)), 2) <= 1e-12

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            pointwise_product(random_field(GridSpec(1, 32), 1),
                              random_field(GridSpec(1, 64), 1))

    def test_dot_product(self, grid2):
        u = random_field(grid2, 9, ncomp=2, band=12)
        v = random_field(grid2, 10, ncomp=2, band=12)
        d = dot_product(u, v)
        manual = pointwise_product(u.component(0), v.component(0)) + \
            pointwise_product(u.component(1), v.component(1))
        assert lp_norm(d - manual, 2) <= 1e-12 * lp_norm(d, 2)

    def test_grid_product_exact_support(self, grid2):
        f = random_field(grid2, 15)
        chi = np.where(grid2.center_distance < 1.0, 1.0, 0.0)
        g = grid_product(SpectralField(grid2, phys=chi), f)
        assert np.abs(g.physical[0][grid2.center_distance >= 1.0]).max() == 0.0


class TestFieldIO:
    def test_roundtrip(self, tmp_path, grid2):
        f = random_field(grid2, 21, ncomp=3)
        path = tmp_path / "field.lpw"
        write_field(path, f)
        g = read_field(path)
        assert g.grid == grid2 and g.ncomp == 3
        assert np.array_equal(g.physical, f.physical)
        assert (tmp_path / "field.lpw.json").exists()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTAFIELD" + b"\x00" * 64)
        with pytest.raises(ValueError):
            read_field(p)

    def _write(self, tmp_path, raw: bytes):
        p = tmp_path / "f.lpw"
        p.write_bytes(raw)
        return p

    def _valid(self, ncomp=1) -> bytes:
        """A well-formed all-zero file on the 1,16 grid (284 bytes at ncomp=1)."""
        return (b"LPWFIELD" + struct.pack("<I", 1) + b"\x00" * 4
                + struct.pack("<III", 1, 16, ncomp) + b"\x00" * (16 * ncomp * 16))

    def test_short_header(self, tmp_path):
        with pytest.raises(ValueError, match="truncated field file header"):
            read_field(self._write(tmp_path, self._valid()[:20]))

    def test_trailing_byte(self, tmp_path):
        with pytest.raises(ValueError, match="needs 284"):
            read_field(self._write(tmp_path, self._valid() + b"\x00"))

    def test_nonzero_pad(self, tmp_path):
        raw = bytearray(self._valid())
        raw[14] = 1
        with pytest.raises(ValueError, match="pad bytes"):
            read_field(self._write(tmp_path, bytes(raw)))

    def test_zero_components(self, tmp_path):
        with pytest.raises(ValueError, match="0 components"):
            read_field(self._write(tmp_path, self._valid(ncomp=0)))

    def test_sidecar_disagrees(self, tmp_path, grid2):
        f = random_field(grid2, 22, ncomp=2)
        path = tmp_path / "f.lpw"
        write_field(path, f)
        side = tmp_path / "f.lpw.json"
        side.write_text(side.read_text().replace('"components": 2', '"components": 3'))
        with pytest.raises(ValueError, match="sidecar"):
            read_field(path)

    def test_every_header_bit_flip_rejected(self, tmp_path):
        raw = self._valid()
        path = self._write(tmp_path, raw)
        for bit in range(28 * 8):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            with pytest.raises(ValueError):
                read_field(path)

    def test_every_truncation_rejected(self, tmp_path):
        f = random_field(GridSpec(1, 16), 23)
        path = tmp_path / "f.lpw"
        write_field(path, f)
        raw = path.read_bytes()
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(ValueError):
                read_field(path)
