"""Command-line front end.

Subcommands: `verify {partition,bernstein,apbound,commutator,paraproduct,
mapping}`, `exponents`, `iterate`, `probe`.  Output is deterministic under a
fixed seed (sorted-key JSON, shortest-roundtrip floats).  Exit codes: 0 all
properties pass, 1 a measured property failed, 2 usage or hypothesis error
(a path that cannot be read or written among them) or a run out of memory.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import sys
from pathlib import Path

from .exponents import RegularityParams, check_hypotheses, compute_gains
from .grid import GridSpec
from .iteration import DecaySequence, IterationParams, decay_bound, hypothesis_holds
from .probe import custom_equation, equation_spec, run_probe
from .verify import VERIFIERS


def _emit(payload: dict, path: str | None = None) -> None:
    # the file first, so a path that cannot be written leaves only the error on stdout
    text = json.dumps(payload, sort_keys=True, indent=1)
    if path:
        Path(path).write_text(text + "\n")
    print(text)


def _check_parent(path: str | None) -> None:
    """Raise, naming the path, unless an output path is unset or its parent
    directory exists; called before any field work, so a bad path costs none."""
    if path and not Path(path).parent.is_dir():
        raise ValueError(f"cannot write {path}: no directory {Path(path).parent}")


def _grid_arg(text: str) -> GridSpec:
    try:
        n, N = (int(t) for t in text.split(","))
        return GridSpec(n, N)
    except Exception as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc


def _seed_arg(text: str) -> int:
    """A seed in [0, 2^64 - 1]; the generator reads seeds modulo 2^64, so one
    outside would silently stand for another."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2^64 - 1], got {text}")
    return seed


def _cmd_verify(args) -> int:
    """Run one bundle; --n/--N/--seed are passed only when given, so each
    default is the bundle's own, and only to a bundle that takes them (any
    other use is a usage error)."""
    fn = VERIFIERS[args.what]
    kwargs = {}
    for flag in ("n", "N", "seed"):
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in inspect.signature(fn).parameters:
            raise ValueError(f"verify {args.what} does not take --{flag}")
        kwargs[flag] = value
    report = fn(**kwargs)
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def _cmd_exponents(args) -> int:
    if (args.sigma is None) != (args.r is None):
        missing = "--r" if args.r is None else "--sigma"
        raise ValueError(f"{missing} is missing: --sigma and --r are given together")
    if args.sigma is not None and not math.isfinite(args.sigma):
        raise ValueError(f"--sigma must be finite, got {args.sigma}")
    if args.r is not None and not 1.0 < args.r < math.inf:
        raise ValueError(f"--r must lie in (1, inf), got {args.r}")
    rep = check_hypotheses(args.n, args.alpha, args.beta, args.gamma, args.s, args.p)
    if not rep.ok:
        _emit({"hypotheses": rep.as_dict()}, args.out)
        return 2
    params = RegularityParams(n=args.n, alpha=args.alpha, beta=args.beta,
                              gamma=args.gamma, s=args.s, p=args.p,
                              sigma=args.sigma, r=args.r)
    gains = compute_gains(params)
    _emit({"hypotheses": rep.as_dict(), **gains.as_dict()}, args.out)
    return 0


def _read_sequence(path: str) -> DecaySequence:
    """The last column of each row, each finite and >= 0; line 1 may be a
    header, and at least one value must follow."""
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            try:
                value = float(row[-1])
            except ValueError:
                if reader.line_num == 1:
                    continue
                value = math.nan
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{path} line {reader.line_num}: {row[-1]!r} is not "
                                 "a finite nonnegative number")
            values.append(value)
    if not values:
        raise ValueError(f"{path} holds no values")
    return DecaySequence(values)


def _cmd_iterate(args) -> int:
    seq = _read_sequence(args.csv)
    if args.S > len(seq) - 1:
        raise ValueError(f"S={args.S} exceeds K={len(seq) - 1}, the last index "
                         "of the sequence")
    params = IterationParams(eps=args.eps, delta=args.delta, S=args.S)
    holds, first_bad = hypothesis_holds(seq, params)
    out = {"holds": holds, "first_violation": first_bad,
           "eps": args.eps, "delta": args.delta, "S": args.S, "K": len(seq) - 1}
    if holds:
        out["M"] = decay_bound(seq, params)
        out["M_from_S"] = decay_bound(seq, params, start=args.S)
    _emit(out, args.out)
    return 0 if holds else 1


def _cmd_probe(args) -> int:
    _check_parent(args.csv)
    if args.equation == "custom":
        if any(v is None for v in (args.L, args.P, args.Q, args.s, args.p)):
            raise ValueError("custom equations need --L --P --Q --s --p")
        eq = custom_equation(args.grid.dim, args.L, args.P, args.Q, s=args.s, p=args.p,
                             amplitude=args.amplitude)
    else:
        eq = equation_spec(args.equation, n=args.grid.dim, s=args.s, p=args.p,
                           amplitude=args.amplitude)
    report = run_probe(eq, args.grid, rho=args.rho, seed=args.seed)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "a_k"])
            for k, v in enumerate(report.decay.a_k):
                w.writerow([k, repr(float(v))])
    _emit(report.as_dict(), args.out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lpw", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run one measured-estimate verification")
    v.add_argument("what", choices=sorted(VERIFIERS))
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--N", type=int, default=None)
    v.add_argument("--seed", type=_seed_arg, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_verify)

    e = sub.add_parser("exponents", help="closed-form exponent pipeline")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--alpha", type=float, required=True)
    e.add_argument("--beta", type=float, required=True)
    e.add_argument("--gamma", type=float, required=True)
    e.add_argument("--s", type=float, required=True)
    e.add_argument("--p", type=float, required=True)
    e.add_argument("--sigma", type=float, default=None)
    e.add_argument("--r", type=float, default=None)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=_cmd_exponents)

    i = sub.add_parser("iterate", help="sequence iteration check on a CSV")
    i.add_argument("--csv", required=True)
    i.add_argument("--eps", type=float, required=True)
    i.add_argument("--delta", type=float, required=True)
    i.add_argument("--S", type=int, default=0)
    i.add_argument("--out", default=None)
    i.set_defaults(fn=_cmd_iterate)

    p = sub.add_parser("probe", help="end-to-end decay probe")
    p.add_argument("--equation", required=True,
                   help="ns | biharmonic | gjms | custom (aliases accepted)")
    p.add_argument("--grid", type=_grid_arg, required=True, metavar="n,N")
    p.add_argument("--rho", type=float, default=0.75)
    p.add_argument("--seed", type=_seed_arg, default=7)
    p.add_argument("--amplitude", type=float, default=1e-2)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--L", default=None, help="registry symbol for custom equations; "
                   "alpha, beta and gamma are the orders of L, P and Q")
    p.add_argument("--P", default=None)
    p.add_argument("--Q", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=_cmd_probe)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_parent(args.out)
        return args.fn(args)
    except (KeyError, ValueError, OSError, MemoryError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())
