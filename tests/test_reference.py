"""Reference outputs: the JSON reports of the six verify bundles at their
defaults and of `run_probe` for `ns` and `biharmonic` at 2,256, seed 9,
recomputed and compared with the files under `tests/reference/`.

Keys, booleans, integers, strings and nulls must be equal; floats must agree
to 1e-12 relative, and exactly where the reference is 0 (or not finite).  A
change that moves any reported value fails here, naming the path to it.

The files are written by running this module as a script against the source
whose values they should hold:

    PYTHONPATH=src python tests/test_reference.py
"""

import json
import math
from pathlib import Path

import pytest

from lpw import cli
from lpw.grid import GridSpec
from lpw.probe import equation_spec, run_probe
from lpw.verify import VERIFIERS

REFERENCE = Path(__file__).resolve().parent / "reference"
PROBES = ("ns", "biharmonic")
RTOL = 1e-12


def _probe_report(equation: str) -> dict:
    return run_probe(equation_spec(equation), GridSpec(2, 256), seed=9).as_dict()


def _text(report: dict) -> str:
    """The report as `lpw` prints it."""
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def _differences(got, want, path="$") -> list:
    """Every place where `got` departs from `want`, as 'path: got != want'."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [d for key in want for d in _differences(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _differences(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and type(got) is float:
        if math.isnan(want):
            same = math.isnan(got)
        elif want == 0.0 or math.isinf(want):
            same = got == want
        else:
            same = abs(got - want) <= RTOL * abs(want)
        return [] if same else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _check(name: str, report: dict) -> None:
    want = json.loads((REFERENCE / f"{name}.json").read_text())
    assert _differences(json.loads(_text(report)), want) == []


@pytest.mark.parametrize("bundle", ["partition", "bernstein", "apbound", "mapping"])
def test_verify_bundle_matches_reference(capsys, bundle):
    # as `lpw verify <bundle>` prints it, so the command's defaults are the bundle's
    assert cli.main(["verify", bundle]) == 0
    _check(f"verify_{bundle}", json.loads(capsys.readouterr().out))


def test_verify_commutator_matches_reference(commutator_report):
    _check("verify_commutator", commutator_report)


def test_verify_paraproduct_matches_reference(paraproduct_run):
    _check("verify_paraproduct", paraproduct_run[0])


@pytest.mark.parametrize("equation", PROBES)
def test_probe_matches_reference(equation):
    _check(f"probe_{equation}", _probe_report(equation))


def test_differences_name_each_departure():
    want = {"a": [1.0, 0.0, True, "x"], "b": {"c": 2}}
    assert _differences({"a": [1.0 + 1e-13, 0.0, True, "x"], "b": {"c": 2}}, want) == []
    got = {"a": [1.0 + 1e-11, 1e-300, 1, "x"], "b": {"c": 2.0}}
    assert _differences(got, want) == ["$.a[0]: 1.00000000001 != 1.0", "$.a[1]: 1e-300 != 0.0",
                                       "$.a[2]: 1 != True", "$.b.c: 2.0 != 2"]
    assert _differences({"a": []}, want) == ["$: keys ['a'] != ['a', 'b']"]


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    reports = {f"verify_{name}": fn() for name, fn in VERIFIERS.items()}
    reports.update({f"probe_{eq}": _probe_report(eq) for eq in PROBES})
    for name, report in reports.items():
        (REFERENCE / f"{name}.json").write_text(_text(report))


if __name__ == "__main__":
    main()
