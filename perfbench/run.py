#!/usr/bin/env python3
"""Layered host-time benchmark for rqlsim.

    python3 perfbench/run.py --workload {prbs64_wide,timed64_batches,margins64}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; rqlsim is imported from its src/
directory, with no install step.  Each run starts fresh child processes:
several that only time set-up, then one that sets up, runs the workload
for S seconds, checks every output and reports.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  The lines before it give the
environment, a digest of the simulated statistics and the
workload-specific figures.  Every record is also appended to
.perfbench_out/results.jsonl, which compare.py reads.

All times are host times scaled to the speed of an idle core (speed.py);
the unscaled median pass time is printed as ``wall_s_host``.  The modelled
circuit's own figures (sums, switching events, margins) are checked, not
measured.  See DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("prbs64_wide", "timed64_batches", "margins64")
SETUP_SAMPLES = 11  # fresh processes timed for setup_s, the workload child included
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("child process ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"child process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared_metrics(key: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def end_to_end(workload: str, setups: list[float], res: dict) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the workload-specific figures
    that the gate cannot hold on every workload."""
    wall = statistics.median(res["idle_s"])
    rate = res["items_per_pass"] / wall
    gated = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": rate,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail = {
        "passes": len(res["idle_s"]),
        "wall_s_host": statistics.median(res["host_s"]),
        "failed_frac": {"value": res["failed"] / res["attempted"], "base": res["attempted"]},
    }
    if workload == "margins64":
        detail["margin_points_per_s"] = {"value": rate, "unit": "1/s"}
    else:
        detail["vectors_per_s"] = {"value": rate, "unit": "1/s"}
    if workload == "timed64_batches":
        calls_ms = [c * 1e3 for c in res["calls"]]
        p95 = statistics.quantiles(calls_ms, n=20)[-1]
        beyond = sum(c > p95 for c in calls_ms)
        detail["batch_ms_p50"] = {"value": statistics.median(calls_ms), "unit": "ms"}
        if beyond >= 10:
            detail["batch_ms_p95"] = {"value": p95, "unit": "ms", "beyond": beyond}
        detail["batch_samples"] = len(calls_ms)
    return gated, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "rqlsim" / "__init__.py").is_file():
        print(f"perfbench: no rqlsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = OUT / f"run-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace), "--workdir", str(workdir)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_child([*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"])
        res = _child([*common, "--seconds", str(args.seconds)], deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        declared = _declared_metrics("per_layer")
        values, detail = res["layers"], {}
    else:
        declared = _declared_metrics("end_to_end")
        values, detail = end_to_end(args.workload, setups + [res["setup_s"]], res)
    if set(values) != set(declared):
        print(f"perfbench: metrics {sorted(values)} != BENCHMARK.json {sorted(declared)}",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": res["env"], "digest": res["digest"], "detail": detail, **result}
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print("env: " + json.dumps(res["env"]))
    print(f"digest: {args.workload} seed={args.seed} {res['digest']}")
    if detail:
        print("detail: " + json.dumps(detail))
    for note in res["notes"]:
        print(f"check failed: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
