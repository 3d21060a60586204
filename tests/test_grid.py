import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpw import grid as grid_module
from lpw.grid import (GridSpec, SpectralField, _forward, _inverse, _one_ahead,
                      _pair_product_fine, dealiased_product, field_from_padded, grid_product,
                      l2_norm, lp_norm, padded_physical, random_field)
from lpw.exponents import RegularityParams
from lpw.lp import build_partition, flat_dyadic_field, shell_norms
from lpw.paraproduct import (all_pairs_shell, all_pairs_shells, product_shell, split,
                             zone_estimate_report, zone_estimate_reports)
from lpw.probe import equation_spec, run_probe
from lpw.psido import commutator_shell, commutator_symbol_remainder, mapping_constants
from lpw.symbols import apply, multiplier, resolve_symbol
from lpw.verify import verify_apbound, verify_bernstein, verify_mapping, verify_partition

from conftest import TRANSFORMS


def _phase(grid, xi):
    """x.xi on the grid."""
    phase = np.zeros(grid.shape)
    for ax, k in enumerate(xi):
        phase = phase + k * np.broadcast_to(grid.x_axes[ax], grid.shape)
    return phase


def mode(grid, xi, ncomp=1):
    """The real lattice mode cos(x.xi): coefficient 1/2 at xi and at -xi."""
    return SpectralField(grid, phys=np.stack([np.cos(_phase(grid, xi))] * ncomp))


def unimodular(grid, xi):
    """The two-component field (cos(x.xi), sin(x.xi)), of modulus 1 everywhere."""
    phase = _phase(grid, xi)
    return SpectralField(grid, phys=np.stack([np.cos(phase), np.sin(phase)]))


def negated(c):
    """The coefficients c at -xi (mod N) on every spatial axis."""
    for ax in range(1, c.ndim):
        c = np.roll(np.flip(c, axis=ax), 1, axis=ax)
    return c


def hermitian(c):
    """The draw convention, from its definition: each lattice point and its
    mirror -xi are decided by the first axis, from the last, on which the
    index is neither 0 nor N/2 (index 1..N/2-1 keeps its value, N/2+1..N-1
    takes the conjugate of its mirror's); a point with every index 0 or N/2
    is its own mirror and keeps its real part."""
    sign = np.zeros(c.shape[1:], dtype=int)
    for ax in reversed(range(c.ndim - 1)):
        i = np.indices(c.shape[1:])[ax]
        n = c.shape[ax + 1]
        here = np.where((i >= 1) & (i < n // 2), 1, np.where(i > n // 2, -1, 0))
        sign = np.where(sign == 0, here, sign)
    out = c.copy()
    out[:, sign < 0] = np.conj(negated(c))[:, sign < 0]
    out[:, sign == 0] = c[:, sign == 0].real
    return out


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
        # cos(x_0) is one coefficient 1/2 at xi = (1, 0) and its mirror (-1, 0)
        f = mode(grid2, (1, 0))
        c = f.coefficients[0]
        assert abs(c[1, 0] - 0.5) < 1e-13 and abs(c[-1, 0] - 0.5) < 1e-13
        mask = np.ones(grid2.shape, dtype=bool)
        mask[1, 0] = mask[-1, 0] = False
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
        # rfftn / N^n and irfftn * N^n, scaled inside the transform instead;
        # only where 1/N^n is inexact may the last digits move.  The forward
        # transform's full lattice is the half spectrum and its mirror.
        x = np.random.default_rng(len(lattice)).standard_normal((ncomp,) + lattice)
        axes, n, h = tuple(range(1, x.ndim)), math.prod(lattice), lattice[-1] // 2
        exact = all(N & (N - 1) == 0 for N in lattice)
        half = np.fft.rfftn(x, axes=axes) / n
        coeffs = _forward(x)
        assert np.array_equal(coeffs[..., :h + 1], half) if exact else \
            np.abs(coeffs[..., :h + 1] - half).max() <= 1e-15 * np.abs(half).max()
        # the mirror is exact off the last-axis 0 and -N/2 planes, which the
        # transform fills on its own (Hermitian to roundoff)
        inner = (slice(None),) * (x.ndim - 1) + (slice(1, h),)
        assert np.array_equal(coeffs[inner], np.conj(negated(coeffs))[inner])
        assert np.abs(coeffs - np.conj(negated(coeffs))).max() <= 1e-15 * np.abs(half).max()
        assert np.abs(coeffs - np.fft.fftn(x, axes=axes) / n).max() <= 1e-15 * np.abs(half).max()
        buf = np.empty(half.shape, dtype=complex)
        assert _forward(x, out=buf) is buf and np.array_equal(buf, coeffs[..., :h + 1])
        samples = np.fft.irfftn(coeffs[..., :h + 1], s=lattice, axes=axes) * n
        got, out = _inverse(coeffs), np.empty(x.shape)
        assert got.dtype == np.float64 and _inverse(coeffs, out=out) is out
        assert np.array_equal(out, got)
        if exact:
            assert np.array_equal(got, samples)
        else:
            assert np.abs(got - samples).max() <= 1e-15 * np.abs(samples).max()


class TestOneAhead:
    """`_one_ahead`, the one look-ahead rule of every run of hand-offs."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_yields_the_items_in_order(self, n):
        assert list(_one_ahead(iter(range(n)))) == list(range(n))

    def test_takes_the_next_item_before_yielding_one(self):
        events = []

        def items():
            for i in range(4):
                events.append(("take", i))
                yield i

        for i in _one_ahead(items()):
            events.append(("use", i))
        assert events == [("take", 0), ("take", 1), ("use", 0), ("take", 2), ("use", 1),
                          ("take", 3), ("use", 2), ("use", 3)]

    @pytest.mark.parametrize("n", [1, 3])
    def test_holds_no_yielded_item(self, n):
        # the shell split lets each shell's samples go before it is reduced,
        # and the shell commutator keeps one shell's transforms in flight:
        # neither holds if the suspended iterator keeps what it yielded
        class Item:
            pass

        ahead = _one_ahead(Item() for _ in range(n))
        for _ in range(n):
            item = next(ahead)
            ref = weakref.ref(item)
            del item
            assert ref() is None
        assert next(ahead, None) is None


def test_concurrent_hand_offs_start_one_helper_and_reply_to_each_caller():
    # four callers race to make the first hand-off under a short switch
    # interval: one helper starts, and every caller gets back its own
    # buffer, transformed as inline
    src = str(Path(grid_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = """if True:
        import sys, threading
        import numpy as np
        from lpw.grid import _forward, _inverse, _soon
        sys.setswitchinterval(1e-6)
        start, bad = threading.Barrier(4), []

        def caller(seed):
            rng = np.random.default_rng(seed)
            start.wait()
            for _ in range(25):
                c = _forward(rng.standard_normal((1, 1 << 14)))
                out = np.empty((1, 1 << 14))
                got = _soon(_inverse, c, out)()
                if got is not out or not np.array_equal(got, _inverse(c)):
                    bad.append(seed)

        callers = [threading.Thread(target=caller, args=(s,)) for s in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
        print(sum(t.is_alive() for t in callers), len(bad),
              sum(t.name == "lpw-transform" for t in threading.enumerate()))
    """
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "1"]


class TestTransformCounts:
    """Transforms of small fixed workloads, pinned so an extra pass fails.

    Each call is keyed by (transform, calling function): every transform of
    a field goes through grid._forward (rfftn) or grid._inverse (irfftn), and
    the symbol remainder's through grid._complex_forward (fftn) and
    grid._complex_inverse (ifftn).
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = Counter()
        for name in TRANSFORMS:
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                seen[_name, sys._getframe(1).f_code.co_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        return seen

    @pytest.fixture
    def shapes(self, monkeypatch):
        # keyed by the lattice transformed: irfftn's output, the others' input
        seen = Counter()
        for name in TRANSFORMS:
            def counted(a, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                out = _fn(a, *args, **kwargs)
                seen[_name, (out if _name == "irfftn" else a).shape[1:]] += 1
                return out
            monkeypatch.setattr(np.fft, name, counted)
        return seen

    def test_split(self, calls, grid2, part2):
        # LL only (k+6 > jmax leaves the corner and HH empty, k < 6 leaves LH/HL empty)
        split(random_field(grid2, 1), random_field(grid2, 2), 3, part2)
        assert calls == {("rfftn", "_forward"): 1, ("irfftn", "_inverse"): 2}

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
        assert shapes == {("irfftn", big): 4, ("rfftn", big): 1 + 1,
                          ("irfftn", small): 2 + 2, ("rfftn", small): 1 + 1}

    def test_split_merges_high_high_columns(self, shapes):
        # N = 2^20, k = 10: the HH columns 16..19 share the V window [16, 19],
        # so HH is one product [16, 19]^2, on the grid M > N + K: 5 * 2^18
        # (8 inverses there when each column made its own product)
        part = build_partition(GridSpec(1, 1 << 20))
        V, w = random_field(part.grid, 1), random_field(part.grid, 2)
        shapes.clear()
        split(V, w, 10, part)
        hh = (5 << 18,)
        assert shapes[("irfftn", hh)] == 2 and shapes[("rfftn", hh)] == 1

    def test_split_top_shell_keeps_three_halves_grid(self, shapes, grid2, part2):
        # at k = jmax the band rule asks for 2N; the 3/2 grid is already exact
        V, w = random_field(grid2, 1), random_field(grid2, 2)
        split(V, w, part2.jmax, part2)
        assert shapes == {("irfftn", (96, 96)): 2, ("rfftn", (96, 96)): 1}

    def test_oracles_keep_three_halves_grid(self, shapes, grid2, part2):
        V, w = random_field(grid2, 1), random_field(grid2, 2)
        fine = (96, 96)
        product_shell(V, w, 3, part2)
        assert shapes == {("irfftn", fine): 2, ("rfftn", fine): 1}
        shapes.clear()
        all_pairs_shell(V, w, 3, part2)
        # each shell of w and of V padded once, and the pair products summed
        # there for one forward transform (n * n forwards when each pair had one)
        n = part2.jmax + 1
        assert shapes == {("irfftn", fine): 2 * n, ("rfftn", fine): 1}

    def test_bernstein_bundle(self, calls):
        # one inverse per packet, in the packet's own array; its L^2 norm and
        # leak come from the coefficients
        verify_bernstein()
        assert calls == {("irfftn", "_inverse"): 6}

    def test_separable_apply(self, calls):
        sym = resolve_symbol("sep:one*pow:2+twoplussin:0*ixi:1")
        apply(sym, random_field(GridSpec(2, 16), 3))
        assert calls == {("irfftn", "_inverse"): 2}

    def test_ns_nonlinearity(self, calls):
        g = GridSpec(2, 64)
        u = random_field(g, 4, ncomp=2)
        eq = equation_spec("ns", n=2)
        eq.nonlinearity(u, u)
        assert calls == {("rfftn", "_forward"): 1, ("irfftn", "_inverse"): 2}

    @pytest.mark.parametrize("kind, dim, N", [("biharmonic", 2, 64), ("gjms", 3, 16)])
    def test_scalar_coefficient_nonlinearities(self, calls, kind, dim, N):
        # padded V, padded Q u and one forward transform of the products, per
        # Q-output component for gjms, whose scalar V meets the three
        # components of grad u one at a time (1 forward, 2 inverses stacked)
        eq = equation_spec(kind, n=dim)
        u = random_field(GridSpec(dim, N), 4)
        V = eq.coefficient(u)
        calls.clear()
        eq.nonlinearity(V, u)
        rows = dim if kind == "gjms" else 1
        assert calls == {("rfftn", "_forward"): rows, ("irfftn", "_inverse"): 1 + rows}

    def test_oracle_shares_padding_across_shells(self, shapes, part1):
        # ks = (5, 6, 7): each shell of w and of V padded once, the pair
        # products summed on the 3/2 grid and transformed forward once, and
        # that one field projected onto all three shells (n * n forwards when
        # each pair had one)
        V, w = random_field(part1.grid, 1), random_field(part1.grid, 2)
        shapes.clear()
        assert len(all_pairs_shells(V, w, (5, 6, 7), part1)) == 3
        n = part1.jmax + 1
        assert shapes == {("irfftn", (384,)): 2 * n, ("rfftn", (384,)): 1}

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
        assert calls == {("rfftn", "_forward"): 10, ("irfftn", "_inverse"): 52}

    def test_probe_ns_reads_l2_shells_from_coefficients(self, calls):
        # ns at n = 2 has r = 2: no shell of u_loc's first component or of
        # the mainline fields is transformed (78 inverses when they were).
        # Its recheck r is 2.1176 (`compute_gains`), so the one split of
        # u_loc transforms its 8 shells once, for the recheck.  The Picard
        # solve takes no norm of its update (40 inverses when it took one
        # per iterate).  The forcing's scale, each iterate's residual, the
        # identity error and the four nonempty zone fields' L^2 norms read
        # coefficients (37 inverses when they read samples)
        run_probe(equation_spec("ns"), GridSpec(2, 256), seed=9)
        assert calls == {("rfftn", "_forward"): 11, ("irfftn", "_inverse"): 27}

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
        assert calls == {("irfftn", "_inverse"): part1.jmax + 1}

    def test_symbol_remainder(self, calls):
        commutator_symbol_remainder(resolve_symbol("sep:cos:0*pow:1"), GridSpec(1, 64), 3)
        assert calls == {("fftn", "_complex_forward"): 3, ("ifftn", "_complex_inverse"): 3}

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
        assert calls == {("rfftn", "_forward"): 1,
                         ("irfftn", "_inverse"): 2 + 1 + part1.jmax + 1}

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
        assert calls == {("rfftn", "_forward"): 1 + 3,
                         ("irfftn", "_inverse"): 2 + 6 + 1 + 3 + part1.jmax + 1}

    def test_mapping_splits_each_field_once(self, calls, part1):
        f = random_field(part1.grid, 7)
        pairs = [(s, p) for s in (0.0, 1.0) for p in (1.5, 3.0)]
        consts, = mapping_constants([resolve_symbol("laplacian")], part1, f, pairs)
        assert len(consts) == 4
        assert calls == {("irfftn", "_inverse"): 2 * (part1.jmax + 1)}  # f and A f

    def test_mapping_bundle_splits_f_once(self, calls):
        # one split of f serves the four symbols and each A f is split once:
        # (jmax + 1) * (1 + 4) inverses of 4,096 points (96 when f was split
        # again for every symbol); each of the two separable symbols adds its
        # apply's inverse and the forward transform A f's shells are gathered from
        verify_mapping()
        jmax = GridSpec(1, 4096).jmax
        assert calls == {("irfftn", "_inverse"): (jmax + 1) * (1 + 4) + 2,
                         ("rfftn", "_forward"): 2}

    def test_partition_bundle_transforms_nothing(self, calls):
        # the fields are coefficients and the reconstruction error is an L^2
        # ratio (2 inverses when it read samples)
        verify_partition()
        assert calls == {}

    def test_apbound_bundle_transforms_only_separable_applies(self, calls):
        # every ratio is L^2: only the separable symbol's apply transforms,
        # once per shell (100 inverses when each norm read samples)
        verify_apbound()
        assert calls == {("irfftn", "_inverse"): 10}

    def test_paraproduct_bundle(self, paraproduct_run):
        # one padded product V w per grid, projected onto each of its shells
        # (360 when `product_shell` padded it again for every k); the zone
        # stability's 18 packets are inverse-transformed once for both cases
        # (351 when each case drew them again); the 4 and 3 HH columns of the
        # full zones at k = 10 and 11 are one product each (333 when each
        # column made its own); the all-pairs oracle sums its 64 pair
        # products on the 3/2 grid for one forward transform (295 when each
        # pair had its own)
        assert paraproduct_run[1] == 232

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
        assert calls == {("irfftn", "_inverse"): 1 + 2 * 2, ("rfftn", "_forward"): 1}

    def test_commutator_of_a_multiplier_transforms_nothing(self, calls):
        part = build_partition(GridSpec(1, 4096))
        f = flat_dyadic_field(part, 8)
        calls.clear()
        assert commutator_shell(resolve_symbol("bilaplacian"), part, f, [10, 11]) == [0.0, 0.0]
        assert calls == {}


class TestNorms:
    def test_constant(self, grid2):
        f = SpectralField(grid2, phys=(-2.5 + 0j) * np.ones(grid2.shape))
        for p in (1, 2, 3.5, math.inf):
            assert abs(lp_norm(f, p) - 2.5) < 1e-13

    def test_unimodular(self, grid2):
        f = unimodular(grid2, (3, -2))
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
        with mock.patch.multiple(np.fft, **{name: refuse for name in TRANSFORMS}):
            got = l2_norm(g)
        assert abs(got - want) <= 1e-13 * want if want > 0.0 else got == 0.0

    def test_p_below_one_rejected(self, grid2):
        with pytest.raises(ValueError):
            lp_norm(random_field(grid2, 1), 0.5)

    def test_nan_p_rejected_before_any_transform(self, grid2):
        f = random_field(grid2, 1)
        refuse = mock.Mock(side_effect=AssertionError("transform"))
        with mock.patch.object(np.fft, "irfftn", refuse):
            with pytest.raises(ValueError, match="p must be >= 1"):
                lp_norm(f, math.nan)


class TestProducts:
    def test_identity(self, grid2):
        f = random_field(grid2, 14, band=20)
        one = SpectralField(grid2, phys=np.ones(grid2.shape))
        g = dealiased_product(f, one)
        assert lp_norm(g - f, 2) <= 1e-12 * lp_norm(f, 2)

    def test_mode_addition(self, grid2):
        # cos a.x cos b.x = (cos (a + b).x + cos (a - b).x) / 2
        f = dealiased_product(mode(grid2, (3, 1)), mode(grid2, (-1, 4)))
        expect = 0.5 * (mode(grid2, (2, 5)) + mode(grid2, (4, -3)))
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
        cube = dealiased_product(sq, m)  # cos^3 t = (3 cos t + cos 3t) / 4
        assert lp_norm(cube - (0.75 * m + 0.25 * mode(g, (15,))), 2) <= 1e-12

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
        # padding writes a fresh half spectrum and transforms it into fresh
        # samples; the way back writes a fresh half spectrum too
        f = random_field(grid2, 16, ncomp=2)
        c = f.coefficients.copy()
        fine = padded_physical(f)
        assert fine.dtype == np.float64 and np.array_equal(f.coefficients, c)
        kept = fine.copy()
        back = field_from_padded(grid2, fine)
        assert np.array_equal(fine, kept)
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
