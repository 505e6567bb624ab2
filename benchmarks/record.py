#!/usr/bin/env python3
"""Append benchmark rows to BENCH_perfbench.json.

    python3 benchmarks/record.py --seeds 1 2 3 --seconds 30
        [--checkout DIR] [--label TEXT]

Runs ``perfbench/run.py`` of a source checkout (this one by default) for
each workload over the seeds, one run at a time, and appends one row per
workload to BENCH_perfbench.json at the root of this checkout.  A row holds
the checkout's commit (``dirty`` when its tracked files differ from that
commit), the label, the seeds and run length, the median and quartiles of
each end-to-end metric over the seeds, the digest of each seed's run and
the environment.  If a run fails or its output checks fail, nothing is
written and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = ROOT / "BENCH_perfbench.json"
WORKLOADS = ("prbs64_wide", "timed64_batches", "margins64")
METRICS = ("wall_s", "setup_s", "items_per_s", "peak_rss_mb")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its result line plus env and digest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited "
                           f"{proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, rest = line.partition(": ")
        if key == "env":
            result["env"] = json.loads(rest)
        elif key == "digest":
            result["digest"] = rest.split(" ", 2)[2]
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: checks failed\n{proc.stderr}")
    return result


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(workload: str, seeds: list[int], runs: list[dict], head: dict) -> dict:
    """The row for one workload's runs, in seed order."""
    metrics = {}
    for name in METRICS:
        metrics[name] = spread([r["metrics"][name]["value"] for r in runs])
        metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
    return {
        **head,
        "workload": workload,
        "seeds": seeds,
        "metrics": metrics,
        "failed": sum(r["failed"] for r in runs),
        "digests": {str(s): r["digest"] for s, r in zip(seeds, runs)},
        "env": runs[0]["env"],
    }


def dumps(rows: list[dict]) -> str:
    """A JSON list with one row per line, so that appends diff by line."""
    return "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n"


def commit_of(checkout: Path) -> tuple[str, bool]:
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True, check=True).stdout.strip()

    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    commit, dirty = commit_of(checkout)
    head = {
        "commit": commit,
        "dirty": dirty,
        "label": args.label,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seconds": args.seconds,
    }
    rows = []
    try:
        for workload in WORKLOADS:
            runs = [run_once(checkout, workload, s, args.seconds) for s in args.seeds]
            rows.append(summarize(workload, args.seeds, runs, head))
    except RuntimeError as exc:
        print(f"record: {exc}", file=sys.stderr)
        return 1
    history = json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else []
    BENCH_FILE.write_text(dumps(history + rows))
    for row in rows:
        wall = row["metrics"]["wall_s"]
        print(f"{row['workload']}: wall_s median {wall['median']:.4g} s "
              f"(q1 {wall['q1']:.4g}, q3 {wall['q3']:.4g}), seeds {row['seeds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
