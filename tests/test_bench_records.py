"""Every committed BENCH_*.json parses and carries the fields that make the
files one readable trajectory: how the runs were made (`command`, `host`),
against which commit (`parent_commit`), the record's `tag`, and, for each
benchmark workload, its `runs` and their `summary`."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = ("zones", "probe", "calculus")


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_fields(path):
    record = json.loads(path.read_text())
    missing = [key for key in ("command", "host", "parent_commit", "tag") if key not in record]
    workloads = record.get("workloads", {})
    missing += [f"workloads.{name}.{key}" for name in WORKLOADS for key in ("runs", "summary")
                if key not in workloads.get(name, {})]
    assert missing == []
    assert all(isinstance(workloads[name]["runs"], list) and workloads[name]["runs"]
               and isinstance(workloads[name]["summary"], dict) for name in WORKLOADS)
