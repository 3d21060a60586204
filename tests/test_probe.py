import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lpw.grid import (GridSpec, SpectralField, _norm, field_from_padded, lp_norm,
                      padded_physical, random_field)
from lpw.lp import build_partition, shell_norms
from lpw.probe import (_quadratic_term, cutoff_field, custom_equation,
                       dyadic_decay_report, equation_residual, equation_spec,
                       localize, manufactured_solution, run_probe)
from lpw import grid as grid_module, probe, psido
from lpw.psido import fit_log2_slope
from lpw.symbols import apply, grad_symbol, laplacian_symbol, resolve_symbol

from test_psido import cutoff_commutator


def reference_nonlinearity(P, Q):
    """P(V Q u) with every product in a fresh array: both factors padded,
    the products concatenated and transformed back out of place."""

    def nonlinearity(V, u):
        pv = padded_physical(V)
        pq = padded_physical(SpectralField(u.grid, freq=np.concatenate(
            [apply(Q, u.component(c)).coefficients for c in range(u.ncomp)])))
        pq = pq.reshape((u.ncomp, -1) + pq.shape[1:])
        contract = pv.shape[0] == pq.shape[1] > 1
        fine = np.concatenate([np.sum(pv * w, axis=0, keepdims=True) if contract else pv * w
                               for w in pq])
        return apply(P, field_from_padded(u.grid, fine))

    return nonlinearity


class TestEquationSpecs:
    def test_builtin_kinds(self):
        for kind, n in (("ns", 2), ("stationary-navier-stokes", 4),
                        ("biharmonic", 2), ("biharmonic4d-toy", 4), ("gjms", 3)):
            eq = equation_spec(kind, n=n)
            assert eq.params.n == n

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            equation_spec("wave")

    def test_missing_default_data(self):
        with pytest.raises(ValueError):
            equation_spec("gjms", n=5)

    def test_violating_data_rejected(self):
        with pytest.raises(ValueError, match="smoothness-lower"):
            equation_spec("ns", n=2, s=0.5, p=2.0)

    def test_custom_equation_checked(self):
        with pytest.raises(ValueError, match="order-gap"):
            custom_equation(2, "laplacian", "grad:0", "grad:0", s=1.2, p=2)


class TestManufacture:
    def test_zero_forcing_gives_zero(self):
        g = GridSpec(2, 32)
        eq = equation_spec("ns", n=2, amplitude=0.0)
        sol = manufactured_solution(eq, g)
        assert lp_norm(sol.u, 2) == 0.0
        assert sol.residual == 0.0

    def test_frozen_coefficient_is_linear_solve(self):
        g = GridSpec(2, 64)
        base = equation_spec("biharmonic", n=2)
        zero_nl = dataclasses.replace(base, kind="linear",
                                      coefficient=lambda u: SpectralField.zeros(g))
        sol = manufactured_solution(zero_nl, g, seed=3)
        assert sol.iterations == 1
        assert sol.residual <= 1e-12
        inv = apply(base.L, sol.u) - sol.forcing
        assert lp_norm(inv, 2) <= 1e-12 * lp_norm(sol.forcing, 2)

    def test_residual_rechecked_independently(self):
        g = GridSpec(2, 64)
        eq = equation_spec("ns", n=2)
        sol = manufactured_solution(eq, g, seed=6)
        fresh = equation_residual(eq, sol.u, sol.forcing)
        assert fresh <= 1e-10

    def test_one_nonlinearity_per_iterate(self):
        g = GridSpec(2, 64)
        eq = equation_spec("ns", n=2)
        seen = []

        def counted(V, u):
            seen.append(1)
            return eq.nonlinearity(V, u)

        counted_eq = dataclasses.replace(eq)
        counted_eq.nonlinearity = counted
        sol = manufactured_solution(counted_eq, g, seed=6)
        assert sol.iterations == 3
        assert len(seen) == sol.iterations + 1

    @pytest.mark.parametrize("kind, dim, N", [("ns", 2, 64), ("ns", 4, 16),
                                              ("biharmonic", 4, 16), ("gjms", 3, 32)])
    def test_in_place_products_leave_the_solution_bit_identical(self, kind, dim, N):
        eq = equation_spec(kind, n=dim)
        ref = dataclasses.replace(eq)
        ref.nonlinearity = reference_nonlinearity(eq.P, eq.Q)
        got, want = (manufactured_solution(e, GridSpec(dim, N)) for e in (eq, ref))
        assert got.iterations == want.iterations
        assert np.array_equal(got.u.coefficients, want.u.coefficients)
        assert got.residual == want.residual

    def test_wide_product_leaves_padded_V_unwritten(self):
        # a 2-component V against a scalar Q-output makes products wider than
        # the Q-output's buffer; no shipped equation reaches this path, where
        # forming a product in place would overwrite the padded V shared by
        # the next component's product
        g = GridSpec(2, 32)
        P, Q = laplacian_symbol(), grad_symbol(0)
        V, u = random_field(g, 1, ncomp=2), random_field(g, 2, ncomp=2)
        kept = V.coefficients.copy(), u.coefficients.copy()
        got = _quadratic_term(P, Q)(V, u)
        want = reference_nonlinearity(P, Q)(V, u)
        assert got.ncomp == 4
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert np.array_equal(V.coefficients, kept[0]) and np.array_equal(u.coefficients, kept[1])

    def test_nonlinearity_peak_memory(self):
        # the products are formed and transformed back in the padded Q u,
        # and that buffer goes before P is applied (38.3 MB traced with
        # per-axis transform intermediates, 24.6 MB with fresh products)
        u = random_field(GridSpec(2, 256), 4, ncomp=2)
        eq = equation_spec("ns", n=2)
        tracemalloc.start()
        try:
            eq.nonlinearity(u, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18e6

    @pytest.mark.parametrize("kind, dim, N", [("ns", 2, 64), ("ns", 2, 128),
                                              ("biharmonic", 2, 64), ("gjms", 3, 32)])
    def test_manufacture_bits_equal_the_inline_manufacture(self, inline_transforms,
                                                           kind, dim, N):
        # the padded Q u is transformed on the helper from 2^14 points:
        # ns 2,64's 96^2 stays on the caller, 2,128 and gjms 3,32 do not
        eq, g = equation_spec(kind, n=dim), GridSpec(dim, N)
        got = manufactured_solution(eq, g, seed=5)
        inline_transforms()
        want = manufactured_solution(eq, g, seed=5)
        assert got.iterations == want.iterations
        assert got.u.coefficients.tobytes() == want.u.coefficients.tobytes()
        assert got.residual == want.residual

    def test_nonlinearity_hands_the_helper_the_padded_V(self, monkeypatch):
        # V's padding goes to the helper while Q u is padded on the caller,
        # which transforms it once V's is done
        g = GridSpec(2, 256)
        eq = equation_spec("ns", n=2)
        V, u = random_field(g, 3, ncomp=2), random_field(g, 4, ncomp=2)
        handed = []

        def recording(transform, src, out, _soon=grid_module._soon):
            handed.append(transform)
            done = _soon(transform, src, out)
            return lambda: handed.append(done().copy()) or handed[-1]

        monkeypatch.setattr(grid_module, "_soon", recording)
        got = eq.nonlinearity(V, u)
        monkeypatch.undo()
        assert len(handed) == 2 and handed[0] is grid_module._inverse
        assert handed[1].shape == (2, 384, 384)
        assert handed[1].tobytes() == padded_physical(V).tobytes()
        assert got.coefficients.tobytes() == eq.nonlinearity(V, u).coefficients.tobytes()

    def test_gjms_manufacture(self):
        g = GridSpec(3, 32)
        eq = equation_spec("gjms", n=3)
        np.fft.fftn  # numpy.fft loads on first use, and its import is no part of the solve
        tracemalloc.start()
        try:
            sol = manufactured_solution(eq, g, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.residual <= 1e-10
        # 20.4 MB traced when each product went to a fresh array, 9.5 MB when
        # the last iterate's nonlinearity lived on through the next one, 8.66
        # MB with the three padded components of grad u made at once (6.69 MB)
        assert peak <= 7.0e6

    def test_gjms_manufacture_in_a_fresh_process(self):
        # the same pin where nothing was imported or handed off before the
        # solve, so the helper thread starts inside the traced region: 9.52 MB
        # when its start imported concurrent.futures and made an executor,
        # 8.93 MB with the padded components of grad u made at once (6.96 MB)
        src = str(Path(probe.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        code = """if True:
            import sys, threading, tracemalloc
            import numpy as np
            from lpw.grid import GridSpec
            from lpw.probe import equation_spec, manufactured_solution
            g, eq = GridSpec(3, 32), equation_spec("gjms", n=3)
            np.fft.fftn  # numpy.fft loads on first use, as in test_gjms_manufacture
            tracemalloc.start()
            sol = manufactured_solution(eq, g, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            print(sol.residual, peak, "concurrent.futures" in sys.modules,
                  threading.active_count())
        """
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        residual, peak, futures, threads = proc.stdout.split()
        assert float(residual) <= 1e-10
        assert int(peak) <= 7.0e6
        assert futures == "False" and threads == "2"

    def test_non_contraction_reported(self):
        g = GridSpec(2, 64)
        eq = equation_spec("ns", n=2, amplitude=50.0)
        with pytest.raises(ValueError, match="diverging"):
            manufactured_solution(eq, g, seed=8)

    def test_full_dimension_flow_manufacture(self):
        # the full-dimension case runs but is slow; the decay-fit window
        # needs N >= 256 in any dimension, so only manufacture is checked
        g = GridSpec(4, 16)
        eq = equation_spec("ns", n=4)
        sol = manufactured_solution(eq, g, seed=7)
        assert sol.residual <= 1e-10


class TestLocalize:
    def test_cutoff_of_constant(self):
        g = GridSpec(2, 64)
        one = SpectralField(g, phys=np.ones(g.shape))
        rho = 0.5
        out = localize(one, rho)
        eta = cutoff_field(g, rho)
        assert np.array_equal(out.physical, eta.physical)

    def test_support_exact(self):
        g = GridSpec(2, 64)
        f = random_field(g, 9)
        rho = 0.6
        out = localize(f, rho)
        outside = g.center_distance >= 2.0 * rho
        assert np.abs(out.physical[0][outside]).max() <= 1e-14

    def test_rho_range(self):
        g = GridSpec(2, 32)
        f = random_field(g, 1)
        for bad in (0.0, math.pi / 4.0, 1.0):
            with pytest.raises(ValueError):
                localize(f, bad)

    def test_delta_shrinks_with_rho(self):
        g = GridSpec(2, 128)
        V = random_field(g, 10)
        q = 4.0
        deltas = [lp_norm(localize(V, rho), q)
                  for rho in (0.7, 0.55, 0.4, 0.25, 0.1)]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))


class TestDecayReport:
    def test_exact_synthetic_slope(self):
        # one unit mode per ring center: per-shell norms are exact, so the
        # fitted gain reproduces the planted decay to rounding
        g = GridSpec(1, 256)
        part = build_partition(g)
        sigma, eps = 1.5, 0.5
        c = np.zeros(g.shape, dtype=complex)
        for j in range(1, part.jmax):
            c[2**j] = 2.0 ** (-(sigma + eps) * j)
        f = SpectralField(g, freq=c)
        rep = dyadic_decay_report(shell_norms(part, f, [2.0])[0][0], 2.0, sigma,
                                  (2, part.jmax - 2), part, epsilon_theory=eps)
        assert abs(rep.epsilon_measured - eps) <= 1e-6
        assert rep.fit_residual <= 1e-9
        assert rep.passed

    def test_entire_spectrum_passes_trivially(self):
        g = GridSpec(1, 256)
        part = build_partition(g)
        f = random_field(g, 11, radial_profile=lambda r: np.exp(-r))
        seq = shell_norms(part, f, [2.0])[0][0]
        rep = dyadic_decay_report(seq, 2.0, 1.0, (2, 5), part, epsilon_theory=3.0)
        assert rep.epsilon_measured > 3.0
        assert rep.passed

    def test_flat_sequence_fails(self):
        g = GridSpec(1, 256)
        part = build_partition(g)
        c = np.zeros(g.shape, dtype=complex)
        for j in range(1, part.jmax):
            c[2**j] = 2.0 ** (-1.5 * j)  # a_k flat at sigma = 1.5
        f = SpectralField(g, freq=c)
        seq = shell_norms(part, f, [2.0])[0][0]
        rep = dyadic_decay_report(seq, 2.0, 1.5, (2, 5), part, epsilon_theory=0.5)
        assert abs(rep.epsilon_measured) <= 1e-6
        assert not rep.passed

    def test_window_validation(self):
        g = GridSpec(1, 256)
        part = build_partition(g)
        seq = shell_norms(part, random_field(g, 12), [2.0])[0][0]
        with pytest.raises(ValueError):
            dyadic_decay_report(seq, 2.0, 1.0, (1, 5), part, 0.1)
        with pytest.raises(ValueError):
            dyadic_decay_report(seq, 2.0, 1.0, (2, part.jmax - 1), part, 0.1)
        with pytest.raises(ValueError):
            dyadic_decay_report(seq, 2.0, 1.0, (3, 5), part, 0.1)  # 3 shells

    def test_tiny_shells_dropped_and_flagged(self):
        g = GridSpec(1, 256)
        part = build_partition(g)
        c = np.zeros(g.shape, dtype=complex)
        for j in range(1, part.jmax):
            c[2**j] = 2.0 ** (-2.0 * j) if j <= 4 else 1e-18
        f = SpectralField(g, freq=c)
        seq = shell_norms(part, f, [2.0])[0][0]
        rep = dyadic_decay_report(seq, 2.0, 1.0, (2, 5), part, epsilon_theory=0.5)
        assert 5 in rep.dropped


class TestRunProbe:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_probe(equation_spec("ns", n=2), GridSpec(1, 256))

    def test_violating_custom_rejected_before_compute(self):
        # the data are checked when the equation is made, so none can reach the probe
        eq = equation_spec("ns", n=2)
        with pytest.raises(ValueError, match="order-gap"):
            dataclasses.replace(eq, kind="bad", P=resolve_symbol("grad:0", 2))  # order 1

    def test_short_window_rejected_before_compute(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("manufacture ran before the window check")

        monkeypatch.setattr("lpw.probe.manufactured_solution", unreachable)
        with pytest.raises(ValueError, match="window"):
            run_probe(equation_spec("ns", n=2), GridSpec(2, 128))

    def test_full_pipeline_ns(self):
        rep = run_probe(equation_spec("ns", n=2), GridSpec(2, 256), seed=7)
        assert rep.passed
        assert rep.residual <= 1e-10
        assert rep.decay.epsilon_measured >= rep.gains.epsilon - 0.1
        assert rep.mainline["identity_error"] <= 1e-12
        assert rep.iteration["admissible"] and rep.iteration["holds"]
        assert rep.bootstrap_recheck is not None and rep.bootstrap_recheck.passed
        assert all(z.delta == rep.delta for z in rep.zone_reports)  # ||V_loc||_q taken once
        d = rep.as_dict()
        for key in ("params", "gains", "a_k", "fit", "pass", "zone_reports"):
            assert key in d

    @staticmethod
    def _traced_peak(kind):
        eq = equation_spec(kind, n=2)
        tracemalloc.start()
        try:
            run_probe(eq, GridSpec(2, 256), seed=23)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_probe_peak_memory(self):
        # each mainline field is reduced to its shells and added to the
        # reconstruction as it is formed, then dropped, the manufactured
        # solution goes once it is localized, and the localized fields keep
        # only their coefficients (54.0 MB traced when all of them lived
        # through the zone reports, 36.9 MB when the nonlinearity formed its
        # products in fresh arrays, 26.9 MB when u_loc and V_loc kept their
        # samples and L u_loc lived through the nonlinearity)
        assert self._traced_peak("ns") <= 21.6e6

    def test_biharmonic_probe_peak_memory(self):
        # 14.8 MB traced when u_loc and V_loc kept their samples and L u_loc
        # lived through the nonlinearity
        assert self._traced_peak("biharmonic") <= 13.4e6

    @pytest.mark.parametrize("kind", ["ns", "biharmonic"])
    def test_delta_read_with_both_representations(self, kind):
        # delta = ||V_loc||_q at q = 2 is read from the coefficients, as the
        # zone reports read it when V_loc held both representations; read
        # from the samples alone, biharmonic's moved in the last digits
        # (8.440651833067257e-06 -> 8.440651833067276e-06)
        eq, grid, rho = equation_spec(kind, n=2), GridSpec(2, 256), 0.75
        rep = run_probe(eq, grid, rho=rho, seed=9)
        sol = manufactured_solution(eq, grid, seed=9)
        V_loc = localize(eq.coefficient(sol.u), min(2.0 * rho, math.pi / 4.0 * 0.999))
        V_loc.coefficients  # both representations held
        assert rep.delta == _norm(V_loc, eq.gains.params.q)
        assert all(z.delta == rep.delta for z in rep.zone_reports)


    def test_lower_bound_scanned_once_per_argument_set(self, monkeypatch):
        # ellipticity (shift 0) only: for a multiplier E = L it already bounds
        # E below on the split's set, and the parametrix reuses the split
        scans = []

        def counting(sym, grid, r_min, shift, x_mask=None, _floor=psido._symbol_floor):
            scans.append((sym.name, r_min, shift))
            return _floor(sym, grid, r_min, shift, x_mask)

        class Scanned(Exception):
            pass

        def stop(grid):
            raise Scanned  # the partition is built right after the parametrix

        monkeypatch.setattr(psido, "_symbol_floor", counting)
        monkeypatch.setattr("lpw.probe.build_partition", stop)
        for kind in ("ns", "biharmonic"):
            scans.clear()
            eq = equation_spec(kind, n=2)
            with pytest.raises(Scanned):
                run_probe(eq, GridSpec(2, 256), seed=9)
            assert scans == [(eq.L.name, 4.0, 0.0)]

    def test_each_field_split_once(self, monkeypatch):
        # u_loc is split once for the fit, the recheck and (for a scalar
        # equation) the zone reports; each mainline field once
        split_fields = []

        def recording(part, f, *args, _split=sys.modules["lpw.lp"].shell_norms, **kwargs):
            split_fields.append(f)  # held, so no two entries share an id
            return _split(part, f, *args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("lpw") and hasattr(mod, "shell_norms"):
                monkeypatch.setattr(mod, "shell_norms", recording)
        for kind, fields in (("ns", 6), ("biharmonic", 5)):
            split_fields.clear()
            run_probe(equation_spec(kind, n=2), GridSpec(2, 256), seed=9)
            assert len({id(f) for f in split_fields}) == len(split_fields) == fields


class TestLocalizationCommutator:
    def test_lower_order_for_leading_operator(self):
        # the cutoff commutes with the leading operator up to one order less
        g = GridSpec(2, 256)
        part = build_partition(g)
        eq = equation_spec("biharmonic", n=2)
        from lpw.lp import flat_dyadic_field
        f = flat_dyadic_field(part, 13)
        eta = cutoff_field(g, 0.75)
        ks = range(2, part.jmax)
        shells = shell_norms(part, cutoff_commutator(eq.L, eta, f), [2])[0][0]
        fit = fit_log2_slope(ks, shells[2:part.jmax])
        assert fit.slope <= eq.params.alpha - 1.0 + 0.2
