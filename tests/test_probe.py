import dataclasses
import math

import numpy as np
import pytest

from lpw.grid import GridSpec, SpectralField, lp_norm, random_field
from lpw.lp import build_partition, dyadic_norm_sequence
from lpw.probe import (EquationSpec, cutoff_field, custom_equation,
                       dyadic_decay_report, equation_residual, equation_spec,
                       localize, manufactured_solution, run_probe)
from lpw.psido import cutoff_commutator_order
from lpw.symbols import apply


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
            custom_equation(2, "laplacian", "grad:0", "grad:0",
                            alpha=2, beta=1, gamma=1, s=1.2, p=2)


class TestManufacture:
    def test_zero_forcing_gives_zero(self):
        g = GridSpec(2, 32)
        eq = equation_spec("ns", n=2)
        sol = manufactured_solution(eq, g, forcing=SpectralField.zeros(g, 2))
        assert lp_norm(sol.u, 2) == 0.0
        assert sol.residual == 0.0

    def test_frozen_coefficient_is_linear_solve(self):
        g = GridSpec(2, 64)
        base = equation_spec("biharmonic", n=2)
        zero_nl = EquationSpec(
            kind="linear", params=base.params, ncomp=1, amplitude=base.amplitude,
            L=base.L, P=base.P, Q=base.Q,
            coefficient=lambda u: SpectralField.zeros(g),
            nonlinearity=lambda V, u: SpectralField.zeros(g))
        sol = manufactured_solution(zero_nl, g, seed=3)
        assert sol.iterations == 1
        assert sol.residual <= 1e-12
        inv = apply(base.L, sol.u) - sol.forcing
        assert lp_norm(inv, 2) <= 1e-12 * lp_norm(sol.forcing, 2)

    def test_geometric_contraction(self):
        g = GridSpec(2, 128)
        eq = equation_spec("biharmonic", n=2)
        sol = manufactured_solution(eq, g, seed=5)
        ups = sol.update_norms
        ratios = [b / a for a, b in zip(ups, ups[1:]) if a > 0]
        assert ratios and max(ratios) <= 0.5

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

        sol = manufactured_solution(dataclasses.replace(eq, nonlinearity=counted), g, seed=6)
        assert sol.iterations == 3
        assert len(seen) == sol.iterations + 1

    def test_gjms_manufacture(self):
        g = GridSpec(3, 32)
        eq = equation_spec("gjms", n=3)
        sol = manufactured_solution(eq, g, seed=7)
        assert sol.residual <= 1e-10

    def test_non_contraction_reported(self):
        g = GridSpec(2, 64)
        eq = equation_spec("ns", n=2, amplitude=50.0)
        with pytest.raises(RuntimeError):
            manufactured_solution(eq, g, seed=8, max_iter=40)

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
        rep = dyadic_decay_report(dyadic_norm_sequence(part, f, 2.0), sigma,
                                  (2, part.jmax - 2), part, epsilon_theory=eps)
        assert abs(rep.epsilon_measured - eps) <= 1e-6
        assert rep.fit_residual <= 1e-9
        assert rep.passed

    def test_entire_spectrum_passes_trivially(self):
        g = GridSpec(1, 256)
        part = build_partition(g)
        f = random_field(g, 11, radial_profile=lambda r: np.exp(-r))
        seq = dyadic_norm_sequence(part, f, 2.0)
        rep = dyadic_decay_report(seq, 1.0, (2, 5), part, epsilon_theory=3.0)
        assert rep.epsilon_measured > 3.0
        assert rep.passed

    def test_flat_sequence_fails(self):
        g = GridSpec(1, 256)
        part = build_partition(g)
        c = np.zeros(g.shape, dtype=complex)
        for j in range(1, part.jmax):
            c[2**j] = 2.0 ** (-1.5 * j)  # a_k flat at sigma = 1.5
        f = SpectralField(g, freq=c)
        seq = dyadic_norm_sequence(part, f, 2.0)
        rep = dyadic_decay_report(seq, 1.5, (2, 5), part, epsilon_theory=0.5)
        assert abs(rep.epsilon_measured) <= 1e-6
        assert not rep.passed

    def test_window_validation(self):
        g = GridSpec(1, 256)
        part = build_partition(g)
        seq = dyadic_norm_sequence(part, random_field(g, 12), 2.0)
        with pytest.raises(ValueError):
            dyadic_decay_report(seq, 1.0, (1, 5), part, 0.1)
        with pytest.raises(ValueError):
            dyadic_decay_report(seq, 1.0, (2, part.jmax - 1), part, 0.1)
        with pytest.raises(ValueError):
            dyadic_decay_report(seq, 1.0, (3, 5), part, 0.1)  # 3 shells

    def test_tiny_shells_dropped_and_flagged(self):
        g = GridSpec(1, 256)
        part = build_partition(g)
        c = np.zeros(g.shape, dtype=complex)
        for j in range(1, part.jmax):
            c[2**j] = 2.0 ** (-2.0 * j) if j <= 4 else 1e-18
        f = SpectralField(g, freq=c)
        seq = dyadic_norm_sequence(part, f, 2.0)
        rep = dyadic_decay_report(seq, 1.0, (2, 5), part, epsilon_theory=0.5)
        assert 5 in rep.dropped


class TestRunProbe:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_probe(equation_spec("ns", n=2), GridSpec(1, 256))

    def test_violating_custom_rejected_before_compute(self):
        eq = equation_spec("ns", n=2)
        bad = EquationSpec(kind="bad", params=eq.params.__class__(
            n=2, alpha=2, beta=1, gamma=1, s=1.2, p=2), ncomp=1,
            amplitude=1e-2, L=eq.L, P=eq.P, Q=eq.Q, coefficient=eq.coefficient,
            nonlinearity=eq.nonlinearity)
        with pytest.raises(ValueError, match="order-gap"):
            run_probe(bad, GridSpec(2, 256))

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
        assert rep.majorant["holds_on_window"]
        assert rep.iteration["admissible"] and rep.iteration["holds"]
        assert rep.bootstrap_recheck is not None and rep.bootstrap_recheck.passed
        d = rep.as_dict()
        for key in ("params", "gains", "a_k", "fit", "pass", "zone_reports"):
            assert key in d

    def test_report_json_roundtrip(self, tmp_path):
        rep = run_probe(equation_spec("biharmonic", n=2), GridSpec(2, 256),
                        seed=7, with_bootstrap_recheck=False)
        out = tmp_path / "report.json"
        rep.write_json(out)
        import json
        data = json.loads(out.read_text())
        assert data["pass"] == rep.passed
        assert data["gains"]["q"] == rep.gains.q


class TestLocalizationCommutator:
    def test_lower_order_for_leading_operator(self):
        # the cutoff commutes with the leading operator up to one order less
        g = GridSpec(2, 256)
        part = build_partition(g)
        eq = equation_spec("biharmonic", n=2)
        from lpw.lp import flat_dyadic_field
        f = flat_dyadic_field(part, 13)
        eta = cutoff_field(g, 0.75)
        rep = cutoff_commutator_order(eq.L, eta, f, part, k_lo=2)
        assert rep.slope <= eq.params.alpha - 1.0 + 0.2
