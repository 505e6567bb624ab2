"""The committed benchmark trajectory, BENCH_perfbench.json, and the
script that appends to it."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record", ROOT / "benchmarks" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def check_row(row):
    assert row["workload"] in record.WORKLOADS
    assert isinstance(row["commit"], str) and len(row["commit"]) == 40
    assert isinstance(row["dirty"], bool)
    assert row["seeds"] and all(isinstance(s, int) for s in row["seeds"])
    assert row["seconds"] > 0
    assert set(row["metrics"]) == set(record.METRICS)
    for m in row["metrics"].values():
        assert m["q1"] <= m["median"] <= m["q3"]
        assert m["unit"]
    assert row["failed"] == 0
    assert set(row["digests"]) == {str(s) for s in row["seeds"]}
    assert {"backend", "numpy", "python"} <= set(row["env"])


def test_committed_rows_are_complete():
    rows = json.loads((ROOT / "BENCH_perfbench.json").read_text())
    assert rows
    for row in rows:
        check_row(row)
    # Every recorded tree has a row for each workload.
    for key in {(r["commit"], r["label"], r["date"]) for r in rows}:
        assert {r["workload"] for r in rows if (r["commit"], r["label"], r["date"]) == key} == set(
            record.WORKLOADS
        )


@pytest.mark.parametrize("walls, want", [([2.0], (2.0, 2.0, 2.0)),
                                         ([4.0, 1.0, 3.0, 2.0, 5.0], (2.0, 3.0, 4.0))])
def test_summary_of_runs(walls, want):
    runs = [
        {
            "metrics": {name: {"value": w, "unit": "s"} for name in record.METRICS},
            "failed": 0,
            "digest": f"d{k}",
            "env": {"backend": "python", "numpy": "2", "python": "3"},
        }
        for k, w in enumerate(walls)
    ]
    seeds = list(range(1, len(walls) + 1))
    head = {"commit": "0" * 40, "dirty": False, "label": "", "date": "", "seconds": 1.0}
    row = record.summarize("margins64", seeds, runs, head)
    check_row(row)
    wall = row["metrics"]["wall_s"]
    assert (wall["q1"], wall["median"], wall["q3"]) == want
    assert row["digests"] == {str(s): f"d{k}" for k, s in enumerate(seeds)}
