"""One benchmark child process: set-up, then one workload, then checks.

Started by run.py, one fresh process per workload run, so that peak RSS
belongs to that workload alone.  Prints one JSON object as its last line.

    python3 perfbench/child.py --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR [--setup-only]
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3  # per kind of pass (untraced, traced)
SETUP_REPEATS = 5  # traced set-ups, for the per-layer set-up spans


def set_up(workdir: Path, repeats: int = 1):
    """Build the default ``gen --width 64`` adder, save it, load it back and
    encode it; returns the loaded netlist, its path and the program."""
    import rqlsim.adder
    import rqlsim.netlist
    import rqlsim.sim.encode

    path = workdir / "adder64.rqlnet"
    for _ in range(repeats):
        built = rqlsim.adder.build_kogge_stone(64, idle_phases=1)
        built.save(path)
        netlist = rqlsim.netlist.Netlist.load(path)
        program = rqlsim.sim.encode.encode(netlist)
    return netlist, path, program


def measure(workload, seconds: float, rec, trace: bool):
    """Run passes until ``seconds`` have gone by and each kind of pass has
    run MIN_PASSES times.  With ``trace``, every other pass is traced (run
    id "pass-k", every layer call wrapped); the others (run id "lap-k") run
    unwrapped.  Returns, by kind, each pass's (host seconds, idle-core
    seconds): the sum of its workload calls, see speed.SpeedProbe."""
    times = {"lap": [], "pass": []}
    start = time.perf_counter()
    k = 0
    while (
        time.perf_counter() - start < seconds
        or len(times["lap"]) < MIN_PASSES
        or (trace and len(times["pass"]) < MIN_PASSES)
    ):
        group = "pass" if trace and k % 2 else "lap"
        rec.run = f"{group}-{k}"
        gc.collect()
        if group == "pass":
            rec.install()
        try:
            with SpeedProbe() as probe:
                workload.run_pass(rec)
        finally:
            rec.uninstall()
        rec.scale(probe)
        calls = [(s.start, s.end) for s in rec.spans if s.run == rec.run and s.name == "call"]
        times[group].append(probe.pass_times(calls))
        k += 1
    return times


def environment() -> dict:
    import numpy
    from rqlsim.sim import backend_name

    return {
        "backend": backend_name(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    # numpy is a dependency, not set-up of rqlsim; its import (disk and
    # dynamic loading) also tracks the speed probe poorly.
    import numpy  # noqa: F401

    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import rqlsim

        if not Path(rqlsim.__file__).resolve().is_relative_to(SRC):
            print(f"rqlsim imported from {rqlsim.__file__}, not {SRC}", file=sys.stderr)
            return 2
        rec = None
        if args.trace:
            import tracing

            rec = tracing.Tracer()
            rec.install()
        netlist, path, program = set_up(args.workdir, SETUP_REPEATS if rec else 1)
        setup_s = probe.pass_times([(t0, time.perf_counter())])[1]
        if rec:
            rec.uninstall()
            rec.scale(probe)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np

    import oracle
    import tracing
    import workloads

    rec = rec or tracing.Tracer()
    env = environment()
    workload = workloads.WORKLOADS[args.workload](netlist, path, args.workdir, args.seed)
    times = measure(workload, args.seconds, rec, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = oracle.Checks()
    digest = workload.check(checks, np.random.default_rng(args.seed))
    result = {
        "env": env,
        "setup_s": setup_s,
        "host_s": [h for h, _ in times["lap"]],
        "idle_s": [i for _, i in times["lap"]],
        "calls": [s.idle for s in rec.spans if s.name == "call" and s.run.startswith("lap")],
        "items_per_pass": workload.items_per_pass,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "notes": checks.notes[:20],
        "digest": digest,
    }
    if args.trace:
        rec.install()
        with SpeedProbe() as probe:
            workloads.probe(rec, netlist, path, args.workdir, args.seed)
        rec.uninstall()
        rec.scale(probe)
        overhead = statistics.median(i for _, i in times["pass"]) - statistics.median(
            i for _, i in times["lap"]
        )
        result["layers"] = tracing.layer_metrics(rec, netlist, program, overhead)
        rec.write(args.workdir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
