#!/usr/bin/env python3
"""Compare two sets of benchmark results, e.g. a parent and a child commit.

    python3 perfbench/compare.py BASE/results.jsonl NEW/results.jsonl

Each file holds the records run.py appends to .perfbench_out/results.jsonl.
For every workload and metric it prints both medians, the change and each
side's quartile spread as a share of its median.  It refuses (exit 2) to
compare results measured on different evaluation kernels, and exits 1 when
a workload's digest differs for the same seed, because then the two sides
did not compute the same thing.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def _load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = _load(argv[0]), _load(argv[1])
    kernels = {r["env"]["backend"] for r in base} | {r["env"]["backend"] for r in new}
    if len(kernels) != 1:
        print(f"refusing to compare results from different kernels: {sorted(kernels)}",
              file=sys.stderr)
        return 2
    for key in ("numpy", "python", "nproc"):
        seen = {str(r["env"][key]) for r in base + new}
        if len(seen) > 1:
            print(f"warning: {key} differs between results: {sorted(seen)}")

    status = 0
    digests = defaultdict(set)
    for r in base + new:
        digests[(r["workload"], r["seed"])].add(r["digest"])
    for (workload, seed), ds in sorted(digests.items()):
        if len(ds) > 1:
            print(f"DIGEST DIFFERS: {workload} seed={seed}")
            status = 1

    values = defaultdict(lambda: ([], []))
    for side, records in ((0, base), (1, new)):
        for r in records:
            for name, m in r["metrics"].items():
                values[(r["workload"], r["trace"], name, m["unit"])][side].append(m["value"])
    print(f"{'workload':<16} {'metric':<24} {'unit':<6} {'base':>12} {'new':>12} "
          f"{'change':>8} {'spread':>13}")
    for (workload, _, name, unit), (a, b) in sorted(values.items()):
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma if ma else float("nan")
        print(f"{workload:<16} {name:<24} {unit:<6} {ma:>12.5g} {mb:>12.5g} "
              f"{change:>+8.1%} {_spread(a):>6.1%}/{_spread(b):<6.1%}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
