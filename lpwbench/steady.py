#!/usr/bin/env python3
"""Steadiness of the benchmark: two alternating sets of runs of the same code.

    python3 lpwbench/steady.py --first-seed 1

For every workload of BENCHMARK.json, both sets use the seeds
first..first+9, one run of `run_seconds` per seed, and the runs alternate
A, B so that a slow phase of the host falls on both sets.  Per end-to-end
metric it prints each set's median and quartiles, the quartile spread as a
share of the median, and whether the sets agree:

- every spread is within the metric's bound;
- the two medians differ by at most the bound, either way;
- the transform counts are equal, run by run, for every seed;
- both sets have the same share of failed operations, and every output is
  correct.

The raw wall and CPU pass times are printed alongside as reference figures.
All results are written to .lpwbench/steady-<first-seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
EXACT = ("fft_calls", "fft_mpoints")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = json.loads(next(line[4:] for line in lines if line.startswith("raw ")))
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values["raw_wall_s"], values["raw_cpu_s"] = raw["raw_wall_s"], raw["raw_cpu_s"]
    return {"seed": seed, "values": values, "correct": result["correct"],
            "failed_share": result["failed"] / result["attempted"]}


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    sets = {"A": {}, "B": {}}
    for i in range(RUNS):
        for workload in workloads:
            for label in ("A", "B"):
                seed = args.first_seed + i
                rec = one_run(workload, seed, spec["run_seconds"])
                sets[label].setdefault(workload, []).append(rec)
                print(f"{label} {workload} seed={seed} " + " ".join(
                    f"{k}={v:.6g}" for k, v in rec["values"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, steady = {}, True
    for workload in workloads:
        runs_a, runs_b = sets["A"][workload], sets["B"][workload]
        shares = {r["failed_share"] for r in runs_a + runs_b}
        correct = all(r["correct"] for r in runs_a + runs_b)
        print(f"\n{workload}: failed shares {sorted(shares)}, correct {correct}")
        print(f"{'metric':18} {'median A':>12} {'q1..q3 A':>25} {'spread A':>9} "
              f"{'median B':>12} {'spread B':>9} {'B/A':>7} {'bound':>6}  agree")
        rows = {}
        for name in runs_a[0]["values"]:
            a = summary([r["values"][name] for r in runs_a])
            b = summary([r["values"][name] for r in runs_b])
            bound = bounds.get(name)
            agree = None
            if bound is not None:
                agree = (a["spread"] <= bound and b["spread"] <= bound
                         and abs(b["median"] / a["median"] - 1.0) <= bound
                         and len(shares) == 1 and correct)
                if name in EXACT:
                    agree = agree and all(ra["values"][name] == rb["values"][name]
                                          for ra, rb in zip(runs_a, runs_b))
                steady = steady and agree
            rows[name] = {"A": a, "B": b, "bound": bound, "agree": agree}
            print(f"{name:18} {a['median']:12.6g} {a['q1']:12.6g}..{a['q3']:<12.6g} "
                  f"{a['spread']:9.4f} {b['median']:12.6g} {b['spread']:9.4f} "
                  f"{b['median'] / a['median']:7.4f} {bound if bound is not None else '-':>6}  "
                  f"{'-' if agree is None else agree}")
        report[workload] = {"rows": rows, "failed_shares": sorted(shares),
                            "correct": correct,
                            "seeds": {"A": [r["seed"] for r in runs_a],
                                      "B": [r["seed"] for r in runs_b]}}
    out = ROOT / ".lpwbench" / f"steady-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": sets, "summary": report}, indent=1) + "\n")
    print(f"\nsteady: {steady}; written to {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
