#!/usr/bin/env python3
"""Run one `lpw` benchmark workload and print its metrics.

    python3 lpwbench/run.py --workload zones --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; `lpw` is imported from its `src/`.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`.  Lines before it give the
raw wall and CPU figures, as JSON after the word `raw`.

Every set-up and pass is placed between timings of a fixed plain-numpy
reference kernel.  Each is rescaled to the speed at which that kernel takes
REF_NOMINAL_S, by the median of the reference timings just before and just
after it, so that slow phases of the host cancel out.  Set-up and the
first (cold) pass are measured in COLD_CHILDREN fresh processes and in this
one, and their median is reported; warm passes repeat for `--seconds` and
their median is reported.  Transform counts come from `fftcount`, installed
before `lpw` is imported.  Peak memory is read in the same cold processes,
after the first pass's operations and before its checks, as the growth of
the high-water mark over the resident memory before `lpw` is imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import fftcount  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REF_REPEATS = 5
REF_WARMUP = 2
REF_NOMINAL_S = 0.0032
COLD_CHILDREN = 4
MIN_WARM_PASSES = 3
CHILD_TIMEOUT_S = 150
OUT_DIR = ROOT / ".lpwbench"

PER_LAYER_EXTRA = ("probe.picard_iterations", "trace.overhead_ratio")
END_TO_END_UNITS = {"setup_s": "s", "pass_cal_s": "s", "cold_pass_cal_s": "s",
                    "peak_rss_mb": "MB", "fft_calls": "count", "fft_mpoints": "Mpoints"}


class Reference:
    """The fixed reference kernel, which never calls `lpw`.

    One sample is the geometric mean of three timings: forward and inverse
    numpy 2-D transforms of a 2x225x225 complex batch (225 is a size no `lpw`
    grid uses, so no transform plan is shared), eight elementwise operations
    on a 2^18 complex vector, and a 40000-step interpreter loop.
    `lpw` work mixes the three kinds; on a shared host each kind slows by its
    own amount, and their mean follows a pass more closely than any one.
    All outputs go to buffers allocated once: a fresh multi-megabyte result
    per call is mapped and faulted in anew until the allocator has seen
    larger blocks, which would time the process's age instead of the host.
    """

    def __init__(self):
        batch = np.arange(2 * 225 * 225, dtype=float).reshape(2, 225, 225)
        self.batch = np.exp(0.618034j * batch)
        self.spec = np.empty_like(self.batch)
        self.back = np.empty_like(self.batch)
        self.vec = np.exp(0.618034j * np.arange(1 << 18))
        self.tmp = np.empty_like(self.vec)
        self.mod = np.empty(self.vec.shape)
        for _ in range(REF_WARMUP):
            self.samples()

    def _transform(self) -> None:
        fftcount.RAW.fftn(self.batch, axes=(1, 2), out=self.spec)
        fftcount.RAW.ifftn(self.spec, axes=(1, 2), out=self.back)

    def _elementwise(self) -> None:
        for _ in range(2):
            np.multiply(self.vec, self.vec, out=self.tmp)
            np.add(self.tmp, self.vec, out=self.tmp)
            np.multiply(self.tmp, 0.5, out=self.tmp)
            np.abs(self.tmp, out=self.mod)

    @staticmethod
    def _interpreter() -> int:
        acc = 0
        for i in range(40000):
            acc += i * i
        return acc

    def samples(self) -> list:
        times = []
        for _ in range(REF_REPEATS):
            parts = []
            for kernel in (self._transform, self._elementwise, self._interpreter):
                t0 = time.perf_counter()
                kernel()
                parts.append(time.perf_counter() - t0)
            times.append(math.prod(parts) ** (1.0 / 3.0))
        return times


def resident_mb() -> float:
    """The resident memory of this process now."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize() / 2**20


def peak_mb() -> float:
    """The high-water mark of this process's resident memory."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_lpw() -> dict:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("lpw")
    if Path(pkg.__file__).resolve().parent != (src / "lpw").resolve():
        raise SystemExit(f"run.py: imported lpw from {pkg.__file__}, not from {src}")
    return {"lpw": pkg, **{m: importlib.import_module(f"lpw.{m}") for m in LAYERS}}


class Session:
    """One process's set-up and passes of a workload, with their records.

    Every set-up and pass is bracketed by reference timings, whose median
    gives its `factor` from wall seconds to seconds at the reference speed.
    """

    def __init__(self, workload: str, seed: int, counter, ref: Reference, traced: bool):
        self.counter = counter
        self.ref = ref
        self.passes = []
        self.problems = []
        before = ref.samples()
        self.rss_before = resident_mb()
        t0 = time.perf_counter()
        modules = import_lpw()
        self.tracer = Tracer(counter, modules) if traced else None
        self.w = WORKLOADS[workload](SimpleNamespace(**modules), seed, self.tracer)
        if self.tracer is not None:
            self.tracer.install()
        self.w.build()
        self.setup_wall = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.uninstall()
            self.setup_layers = self.tracer.metrics()
        after = ref.samples()
        self.setup_factor = self.factor(before, after)
        self.refs = before + after

    def factor(self, before: list, after: list) -> float:
        return REF_NOMINAL_S / statistics.median(before + after)

    def run_pass(self, kind: str) -> dict:
        """Time one pass between reference timings, then check its outputs."""
        ops = self.w.ops()
        traced = kind == "traced"
        before = self.tracer.metrics() if traced else None
        outs, failed = {}, 0
        refs_before = self.ref.samples()
        if traced:
            self.tracer.install()
        calls0, points0 = self.counter.snapshot()
        c0, t0 = time.process_time(), time.perf_counter()
        for name, fn in ops:
            try:
                outs[name] = fn()
            except Exception as exc:  # a failing operation is counted, not fatal
                failed += 1
                self.problems.append(f"{name} raised {exc!r}")
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        calls1, points1 = self.counter.snapshot()
        peak = peak_mb() - self.rss_before
        if traced:
            self.tracer.uninstall()
        refs_after = self.ref.samples()
        self.refs += refs_before + refs_after
        wrong = 0
        for name, out in outs.items():
            try:
                bad = self.w.check(name, out)
            except Exception as exc:  # an output the check cannot read is wrong
                bad = [f"check raised {exc!r}"]
            if bad:
                wrong += 1
                self.problems += [f"{name}: {b}" for b in bad]
        rec = {"kind": kind, "wall": wall, "cpu": cpu,
               "factor": self.factor(refs_before, refs_after),
               "counts": (calls1 - calls0, points1 - points0),
               "ops": len(ops), "failed": failed, "wrong": wrong, "peak_mb": peak,
               "layer_values": self.w.layer_values()}
        if traced:
            after = self.tracer.metrics()
            rec["layers"] = {k: after[k] - before[k] for k in after}
        self.passes.append(rec)
        return rec


def cold_sample(args, counter, ref) -> tuple:
    """Set up in this process and run its first pass, each rescaled by its refs."""
    session = Session(args.workload, args.seed, counter, ref, traced=args.trace == 1)
    rec = session.run_pass("cold")
    sample = {"setup_wall": session.setup_wall,
              "setup_cal": session.setup_wall * session.setup_factor,
              "cal": rec["wall"] * rec["factor"], "problems": session.problems,
              **{k: rec[k] for k in ("wall", "cpu", "counts", "ops", "failed", "wrong",
                                  "peak_mb")}}
    return session, sample


def child_sample(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--cold-child"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py: cold-start process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts_failed(records: list) -> int:
    """Operations of passes whose transform counts differ from the run's mode."""
    mode = Counter(tuple(r["counts"]) for r in records).most_common(1)[0][0]
    return sum(r["ops"] - r["failed"] for r in records if tuple(r["counts"]) != mode)


def report(samples: list, passes: list, problems: list, metrics: dict) -> dict:
    for problem in sorted(set(problems)):
        print(f"problem: {problem}", file=sys.stderr)
    failed = sum(s["failed"] for s in samples + passes)
    failed += counts_failed(samples) + counts_failed(passes)
    return {"correct": all(s["wrong"] == 0 for s in samples + passes),
            "attempted": sum(s["ops"] for s in samples + passes),
            "failed": failed, "metrics": metrics}


def _median(key: str, recs: list) -> float:
    return statistics.median(r[key] for r in recs)


def end_to_end(args, counter, ref) -> dict:
    samples = [child_sample(args) for _ in range(COLD_CHILDREN)]
    session, own = cold_sample(args, counter, ref)
    samples.append(own)
    t_end = time.perf_counter() + args.seconds
    while len(session.passes) <= MIN_WARM_PASSES or time.perf_counter() < t_end:
        session.run_pass("warm")
    warm = session.passes[1:]
    calls, points = Counter(tuple(r["counts"]) for r in warm).most_common(1)[0][0]
    values = {
        "setup_s": _median("setup_cal", samples),
        "pass_cal_s": statistics.median(r["wall"] * r["factor"] for r in warm),
        "cold_pass_cal_s": _median("cal", samples),
        "peak_rss_mb": _median("peak_mb", samples),
        "fft_calls": calls,
        "fft_mpoints": points / 1e6,
    }
    print("raw " + json.dumps({
        "warm_passes": len(warm), "raw_wall_s": _median("wall", warm),
        "raw_cpu_s": _median("cpu", warm), "cold_wall_s": _median("wall", samples),
        "setup_wall_s": _median("setup_wall", samples),
        "reference_s": statistics.median(session.refs),
        "reference_timings": len(session.refs)}))
    return report(samples, warm, sum((s["problems"] for s in samples), session.problems),
                  {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()})


def layer_metric_names() -> list:
    return list(Tracer(None, {}).metrics()) + list(PER_LAYER_EXTRA)


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mpoints", "Mpoints"), ("_mvalues", "Mvalues"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def traced(args, counter, ref) -> dict:
    """Alternate traced and untraced warm passes; report one set-up plus one pass."""
    session, own = cold_sample(args, counter, ref)
    t_end = time.perf_counter() + args.seconds
    kinds = ("traced", "warm")
    while len(session.passes) <= 2 * MIN_WARM_PASSES or time.perf_counter() < t_end:
        session.run_pass(kinds[len(session.passes) % 2])
    traced_recs = [r for r in session.passes if r["kind"] == "traced"]
    plain = [r for r in session.passes if r["kind"] == "warm"]
    n = len(traced_recs)
    values = dict.fromkeys(layer_metric_names(), 0.0)
    for k, v in session.setup_layers.items():
        if k.endswith("_s"):
            values[k] = (v * session.setup_factor
                         + sum(r["layers"][k] * r["factor"] for r in traced_recs) / n)
        else:
            values[k] = v + sum(r["layers"][k] for r in traced_recs) / n
    for key in traced_recs[0]["layer_values"]:
        values[key] = sum(r["layer_values"][key] for r in traced_recs) / n
    values["trace.overhead_ratio"] = (
        statistics.median(r["wall"] * r["factor"] for r in traced_recs)
        / statistics.median(r["wall"] * r["factor"] for r in plain))
    print(f"trace {args.workload} seed={args.seed}: {n} traced and {len(plain)} "
          f"untraced passes, traced/untraced pass time {values['trace.overhead_ratio']:.4f}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{args.workload}-s{args.seed}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "traced_passes": n,
         "metrics": values, "spans": session.tracer.spans()},
        indent=1, sort_keys=True) + "\n")
    return report([own], session.passes[1:], session.problems,
                  {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cold-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lpw" / "__init__.py").is_file():
        print(f"run.py: no lpw package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    counter = fftcount.install()
    ref = Reference()
    if args.cold_child:
        print(json.dumps(cold_sample(args, counter, ref)[1]))
        return 0
    result = (traced if args.trace else end_to_end)(args, counter, ref)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
