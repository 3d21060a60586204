"""Each independent check accepts the package's output and rejects a perturbed one.

    python3 -m pytest lpwbench -q
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
from lpw import lp, paraproduct, probe, symbols, verify  # noqa: E402
from lpw.exponents import RegularityParams  # noqa: E402
from lpw.grid import GridSpec, random_field  # noqa: E402


def bumped(arr, rel=1e-7):
    """A copy with one coefficient moved by `rel` of the array's largest."""
    out = np.array(arr, dtype=complex)
    flat = out.reshape(-1)
    flat[np.argmax(np.abs(flat))] *= 1.0 + rel
    return out


def test_cover_rejects_perturbed_shell():
    grid = GridSpec(2, 32)
    part = lp.build_partition(grid)
    V, w = random_field(grid, 1), random_field(grid, 2)
    k = 3
    total = paraproduct.split(V, w, k, part).total.coefficients
    assert oracle.check_cover(V.coefficients, w.coefficients, k, {"split": total}) == []
    assert oracle.check_cover(V.coefficients, w.coefficients, k,
                              {"split": bumped(total)}) != []
    assert oracle.check_cover(V.coefficients, w.coefficients, k + 1, {"split": total}) != []


@pytest.fixture(scope="module")
def zone_reports():
    grid = GridSpec(1, 1 << 14)
    part = lp.build_partition(grid)
    params = RegularityParams(n=1, alpha=2.0, beta=0.5, gamma=1.0, s=1.1, p=10.0 / 3.0,
                              sigma=1.25, r=1.0 / 0.45)
    u = lp.shell_sum_field(part, {j: 2.0 ** (-1.55 * j) for j in range(1, part.jmax + 1)},
                           6, norm_p=params.r)
    V = lp.flat_dyadic_field(part, 5)
    Q = symbols.multiplier(1.0, lambda *xis: (1.0 + sum(a * a for a in xis)) ** 0.5)
    reps = [paraproduct.zone_estimate_report(V, u, Q, k, params, part).as_dict()
            for k in (8, 9, 10)]
    return V.coefficients, params, reps


def test_zone_reports_reject_perturbations(zone_reports):
    V, params, reps = zone_reports
    assert oracle.check_zone_reports(V, params.q, params.r, reps) == []
    for path, value in ((("delta",), reps[1]["delta"] * (1 + 1e-9)),
                        (("branch_flags", "III"), "r<q"),
                        (("zone", "III", "lhs"), math.nan),
                        (("zone", "I+II", "constant"), reps[1]["zone"]["I+II"]["constant"] * 20)):
        bad = copy.deepcopy(reps)
        node = bad[1]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert oracle.check_zone_reports(V, params.q, params.r, bad) != [], path


def test_residuals_reject_perturbed_solution():
    grid = GridSpec(2, 64)
    for name, residual in (("ns", oracle.ns_residual),
                           ("biharmonic", oracle.biharmonic_residual)):
        sol = probe.manufactured_solution(probe.equation_spec(name, n=2), grid, seed=3)
        u, f = sol.u.coefficients, sol.forcing.coefficients
        assert residual(u, f) <= 1e-10, name
        assert residual(bumped(u, 1e-6), f) > 1e-10, name


def test_probe_report_rejects_perturbations():
    eq = probe.equation_spec("biharmonic", n=2)
    rep = probe.run_probe(eq, GridSpec(2, 256), seed=3).as_dict()
    p = eq.params
    data = (p.n, p.alpha, p.beta, p.gamma, p.s, p.p)
    assert oracle.check_probe(rep, data, 0.0) == []
    assert oracle.check_probe(rep, data, 1e-9) != []
    for edit in (lambda r: r["params"].__setitem__("sigma", r["params"]["sigma"] + 1e-9),
                 lambda r: r["params"].__setitem__("epsilon", r["params"]["epsilon"] * 0.99),
                 lambda r: r["fit"].__setitem__("epsilon_measured", 0.0),
                 lambda r: r["a_k"].__setitem__(3, r["a_k"][3] * 1.01),
                 lambda r: r.__setitem__("pass", False)):
        bad = copy.deepcopy(rep)
        edit(bad)
        assert oracle.check_probe(bad, data, 0.0) != []


def test_closed_form_matches_worked_values():
    # README: n=4, alpha=2, beta=0, gamma=1, s=1, p=2 gives q=4, epsilon=0.5
    got = oracle.closed_form(4, 2.0, 0.0, 1.0, 1.0, 2.0)
    assert got["q"] == 4.0 and got["epsilon"] == 0.5


def test_partition_rejects_perturbed_profile():
    profiles = list(lp.build_partition(GridSpec(2, 64)).profiles)
    assert oracle.check_partition(profiles) == []
    profiles[2] = profiles[2] * (1.0 + 1e-12)
    assert oracle.check_partition(profiles) != []


def test_bernstein_rejects_perturbed_slope_and_packets():
    part = lp.build_partition(GridSpec(2, 256))
    js = list(range(2, 8))
    rep = verify.verify_bernstein(n=2, N=256, seed=2)
    packets = [lp.shell_packet(part, j, 2 + j, coherent=True).coefficients for j in js]
    assert oracle.check_bernstein(packets, js, rep) == []
    assert oracle.check_bernstein(packets, js, {**rep, "slope": rep["slope"] + 1e-6}) != []
    flat = [lp.shell_packet(part, j, 2 + j, coherent=False).coefficients for j in js]
    assert oracle.check_bernstein(flat, js, rep) != []


def test_commutator_rejects_nonzero_multiplier_commutator():
    part = lp.build_partition(GridSpec(1, 4096))
    f = lp.flat_dyadic_field(part, 4)
    A = symbols.resolve_symbol("fractional_laplacian:0.75")
    left = lp.project(part, symbols.apply(A, f), 10).coefficients
    right = symbols.apply(A, lp.project(part, f, 10)).coefficients
    rep = verify.verify_commutator(N=16384, seed=4)
    assert oracle.check_commutator(left, right, rep) == []
    assert oracle.check_commutator(left, bumped(right, 1e-9), rep) != []
    assert oracle.check_commutator(left, right, {**rep, "multiplier_commutator": 1e-300}) != []
    bad = copy.deepcopy(rep)
    label = next(iter(bad["slopes"]))
    bad["slopes"][label]["values"][-1] *= 1.1
    assert oracle.check_commutator(left, right, bad) != []


def test_spreads_reject_wide_or_nonfinite_values():
    rep = verify.verify_apbound(N=1024, seed=3)
    assert oracle.check_spreads(rep, "ratios") == []
    for value in (math.nan, 0.0):
        bad = copy.deepcopy(rep)
        bad["symbols"]["laplacian"]["ratios"][0] = value
        assert oracle.check_spreads(bad, "ratios") != []
    bad = copy.deepcopy(rep)
    vals = bad["symbols"]["grad:0"]["ratios"]
    vals[0] = 11.0 * max(vals)
    assert oracle.check_spreads(bad, "ratios") != []


def test_quantization_rejects_perturbed_application():
    f = random_field(GridSpec(2, 16), 9)
    applied = symbols.apply(symbols.resolve_symbol("sep:twoplussin:0*pow:2"), f).physical
    terms = [(lambda *xs: 2.0 + np.sin(xs[0]), lambda *xis: 1.0 + sum(a * a for a in xis))]
    assert oracle.check_quantization(terms, f.coefficients, applied) == []
    assert oracle.check_quantization(terms, f.coefficients, bumped(applied, 1e-9)) != []
    other = [(lambda *xs: 2.0 + np.cos(xs[0]), terms[0][1])]
    assert oracle.check_quantization(other, f.coefficients, applied) != []


_COUNTER_SCRIPT = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import numpy as np
import fftcount
counter = fftcount.install()
scipy_loaded = "scipy.fft" in sys.modules
import scipy.fft
np.fft.fftn(np.ones((2, 8, 8)), axes=(1, 2))
scipy.fft.irfft(np.ones(5))
fftcount.RAW.fftn(np.ones((4, 4)))
from run import import_lpw
from spans import Tracer
mods = import_lpw()
tracer = Tracer(counter, mods)
orig = mods["lp"].project
tracer.install()
grid = mods["grid"].GridSpec(1, 64)
f = mods["grid"].random_field(grid, 1)
part = mods["lp"].build_partition(grid)
mods["grid"].lp_norm(mods["lp"].project(part, f, 2), 2)
tracer.uninstall()
m = tracer.metrics()
print(json.dumps({{"counts": counter.snapshot(), "scipy_loaded": scipy_loaded,
                   "restored": mods["lp"].project is orig,
                   "grid": m["grid.fft_mpoints"], "lp": m["lp.fft_mpoints"],
                   "calls": m["grid.fft_calls"], "project": m["lp.project_calls"],
                   "self": min(s["self_s"] for s in tracer.spans().values())}}))
"""


def test_counter_and_tracer_attribute_transforms():
    script = _COUNTER_SCRIPT.format(here=str(HERE), src=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, check=True)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    # 128 points, then a real inverse transform of scipy, imported after the
    # counter, counted on its 8-point real output; the raw transform is not
    # counted; lp_norm's inverse adds 64
    assert not got["scipy_loaded"]
    assert got["counts"] == [3, 128 + 8 + 64]
    assert got["restored"]
    assert (got["grid"], got["lp"], got["calls"], got["project"]) == (64e-6, 0.0, 1, 1)
    assert got["self"] >= 0.0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import run

    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    assert [m["name"] for m in spec["per_layer"]] == run.layer_metric_names()
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
