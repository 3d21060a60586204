"""The three workloads: set-up, the operations of one pass, and their checks.

A workload is built in two steps so that the set-up can be timed and traced:
the constructor only installs hooks, `build()` makes the grids, partitions and
seeded inputs.  A pass is the fixed list of operations from `ops()`, each an
`lpw` call whose output `check()` compares with the independent computations
in `oracle`.  Checks read only representations the package already holds, so
they never start a transform that a later pass would then skip.
"""

from __future__ import annotations

import numpy as np

import oracle


class Capture:
    """Stands in for a function and keeps each result; `fn` may be traced."""

    def __init__(self, fn):
        self.fn = fn
        self.results = []

    def __call__(self, *args, **kwargs):
        out = self.fn(*args, **kwargs)
        self.results.append(out)
        return out


class Zones:
    """The mix of `lpw verify paraproduct`, from paraproduct and lp calls.

    Exact cover on a 2-D 128^2 grid against the all-pairs oracle, the
    untruncated full zones at k = 10 on a 1-D 2^18 grid, and zone estimate
    reports at k = 9, 10, 11 on a 1-D 2^16 grid in both branches.
    """

    name = "zones"
    COVER_KS = (4, 5, 6)
    FULL_K = 10
    REPORT_KS = (9, 10, 11)

    def __init__(self, L, seed: int, tracer=None):
        self.L = L
        self.seed = seed

    def build(self) -> None:
        L, s = self.L, 10 * self.seed
        g2 = L.grid.GridSpec(2, 128)
        self.part2 = L.lp.build_partition(g2)
        self.V2, self.w2 = L.grid.random_field(g2, s + 1), L.grid.random_field(g2, s + 2)
        g1 = L.grid.GridSpec(1, 1 << 18)
        self.part1 = L.lp.build_partition(g1)
        self.V1, self.w1 = L.grid.random_field(g1, s + 3), L.grid.random_field(g1, s + 4)
        g3 = L.grid.GridSpec(1, 1 << 16)
        self.part3 = L.lp.build_partition(g3)
        self.V3 = L.lp.flat_dyadic_field(self.part3, s + 5)
        self.Q = L.symbols.multiplier(1.0, lambda *xis: (1.0 + sum(
            np.asarray(a) ** 2 for a in xis)) ** 0.5, "qref")
        # one data tuple per branch: r >= q (and r >= q'), then r < q (and r < q')
        self.branches = {}
        for label, p, r in (("r>=q", 10.0 / 3.0, 1.0 / 0.45), ("r<q", 2.0, 1.0 / 0.65)):
            params = L.exponents.RegularityParams(n=1, alpha=2.0, beta=0.5, gamma=1.0,
                                                  s=1.1, p=p, sigma=1.25, r=r)
            u = L.lp.shell_sum_field(
                self.part3, {j: 2.0 ** (-(params.sigma + 0.3) * j)
                             for j in range(1, self.part3.jmax + 1)},
                s + 6, norm_p=r)
            self.branches[label] = (params, u)

    def ops(self) -> list:
        L = self.L
        pp = L.paraproduct

        def cover(k):
            zs = pp.split(self.V2, self.w2, k, self.part2)
            return {"split": zs.total.coefficients,
                    "product_shell": pp.product_shell(self.V2, self.w2, k, self.part2).coefficients,
                    "all_pairs": pp.all_pairs_shell(self.V2, self.w2, k, self.part2).coefficients,
                    "disjoint": zs.zones.disjoint(), "truncated": zs.zones.truncated}

        def full():
            zs = pp.split(self.V1, self.w1, self.FULL_K, self.part1)
            return {"split": zs.total.coefficients,
                    "product_shell": pp.product_shell(self.V1, self.w1, self.FULL_K,
                                                      self.part1).coefficients,
                    "disjoint": zs.zones.disjoint(), "truncated": zs.zones.truncated}

        def reports(label):
            params, u = self.branches[label]
            return [pp.zone_estimate_report(self.V3, u, self.Q, k, params, self.part3).as_dict()
                    for k in self.REPORT_KS]

        out = [(f"cover:k{k}", lambda k=k: cover(k)) for k in self.COVER_KS]
        out.append((f"full:k{self.FULL_K}", full))
        out += [(f"report:{label}", lambda label=label: reports(label))
                for label in self.branches]
        return out

    def check(self, name: str, out) -> list:
        if name.startswith("report:"):
            params, _u = self.branches[name.split(":", 1)[1]]
            return oracle.check_zone_reports(self.V3.coefficients, params.q, params.r, out)
        if name.startswith("cover:"):
            V, w, k, truncated_ok = self.V2, self.w2, int(name[7:]), True
        else:
            V, w, k, truncated_ok = self.V1, self.w1, self.FULL_K, False
        bad = oracle.check_cover(V.coefficients, w.coefficients, k,
                                 {key: out[key] for key in ("split", "product_shell",
                                                            "all_pairs") if key in out})
        if not out["disjoint"]:
            bad.append(f"{name}: zones overlap")
        if out["truncated"] and not truncated_ok:
            bad.append(f"{name}: zones truncated")
        return bad

    def layer_values(self) -> dict:
        return {}


class Probe:
    """`run_probe` for ns and biharmonic on the 2,256 grid, as the README runs it."""

    name = "probe"
    EQUATIONS = ("ns", "biharmonic")

    def __init__(self, L, seed: int, tracer=None):
        self.L = L
        self.seed = seed
        self.tracer = tracer
        self.capture = Capture(L.probe.manufactured_solution)
        L.probe.manufactured_solution = self.capture
        if tracer is not None:
            tracer.slot(vars(self.capture), "fn", "probe.manufactured_solution")

    def build(self) -> None:
        L = self.L
        self.grid = L.grid.GridSpec(2, 256)
        self.eqs = {name: L.probe.equation_spec(name, n=2) for name in self.EQUATIONS}
        if self.tracer is not None:
            for eq in self.eqs.values():
                self.tracer.slot(vars(eq), "nonlinearity", "probe.nonlinearity")

    def ops(self) -> list:
        self.capture.results.clear()

        def run(i, name):
            report = self.L.probe.run_probe(self.eqs[name], self.grid,
                                            seed=2 * self.seed + i + 1)
            sol = self.capture.results[-1]
            return {"report": report.as_dict(), "u": sol.u.coefficients,
                    "forcing": sol.forcing.coefficients}

        return [(name, lambda i=i, name=name: run(i, name))
                for i, name in enumerate(self.EQUATIONS)]

    def check(self, name: str, out) -> list:
        residual = (oracle.ns_residual if name == "ns" else oracle.biharmonic_residual)(
            out["u"], out["forcing"])
        p = self.eqs[name].params
        return oracle.check_probe(out["report"], (p.n, p.alpha, p.beta, p.gamma, p.s, p.p),
                                  residual)

    def layer_values(self) -> dict:
        return {"probe.picard_iterations": sum(s.iterations for s in self.capture.results)}


def _two_plus_sin(*xs):
    return 2.0 + np.sin(xs[0])


def _japanese_square(*xis):
    return 1.0 + sum(a * a for a in xis)


class Calculus:
    """The partition, bernstein, apbound, commutator and mapping bundles at
    their defaults, and one separable symbol applied on a 16^2 grid."""

    name = "calculus"
    BUNDLES = ("partition", "bernstein", "apbound", "commutator", "mapping")
    QUANTIZED = "sep:twoplussin:0*pow:2"

    def __init__(self, L, seed: int, tracer=None):
        self.L = L
        self.seed = seed
        self._inputs = None

    def build(self) -> None:
        L = self.L
        self.seeds = {b: 10 * self.seed + i + 1 for i, b in enumerate(self.BUNDLES)}
        gq = L.grid.GridSpec(2, 16)
        self.fq = L.grid.random_field(gq, 10 * self.seed + 9)
        self.Aq = L.symbols.resolve_symbol(self.QUANTIZED)

    def ops(self) -> list:
        v = self.L.verify
        out = [(b, lambda b=b: getattr(v, f"verify_{b}")(seed=self.seeds[b]))
               for b in self.BUNDLES]
        out.append(("quantize", lambda: self.L.symbols.apply(self.Aq, self.fq).physical))
        return out

    def _check_inputs(self) -> dict:
        """Inputs the checks rebuild from the seeds (made once, outside timing)."""
        if self._inputs is None:
            L = self.L
            part = L.lp.build_partition(L.grid.GridSpec(2, 512))
            js = list(range(2, 8))
            packets = [L.lp.shell_packet(part, j, self.seeds["bernstein"] + j,
                                         coherent=True).coefficients for j in js]
            part1 = L.lp.build_partition(L.grid.GridSpec(1, 4096))
            f = L.lp.flat_dyadic_field(part1, self.seeds["commutator"])
            A = L.symbols.resolve_symbol("fractional_laplacian:0.75")
            k = 10
            left = L.lp.project(part1, L.symbols.apply(A, f), k).coefficients
            right = L.symbols.apply(A, L.lp.project(part1, f, k)).coefficients
            self._inputs = {"profiles": list(part.profiles), "js": js, "packets": packets,
                            "left": left, "right": right}
        return self._inputs

    def check(self, name: str, out) -> list:
        if name == "quantize":
            return oracle.check_quantization([(_two_plus_sin, _japanese_square)],
                                             self.fq.coefficients, out)
        bad = [] if out["passed"] else [f"{name}: report does not pass"]
        inputs = self._check_inputs()
        if name == "partition":
            bad += oracle.check_partition(inputs["profiles"])
        elif name == "bernstein":
            bad += oracle.check_bernstein(inputs["packets"], inputs["js"], out)
        elif name == "commutator":
            bad += oracle.check_commutator(inputs["left"], inputs["right"], out)
        elif name == "apbound":
            bad += oracle.check_spreads(out, "ratios")
        else:
            bad += oracle.check_spreads(out, "constants")
        return bad

    def layer_values(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Zones, Probe, Calculus)}
