"""The benchmark's contract with rqlsim: every name that perfbench calls,
wraps or reads still exists and behaves.

A traced set-up and the per-layer probe must yield every ``per_layer``
metric that BENCHMARK.json declares, and one ``margins64`` pass must pass
its output checks.  perfbench's modules are imported as they are, and
nothing under ``perfbench/`` is changed.  Span durations are host seconds:
the speed probe that corrects them for host load is not part of the
contract.
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import child  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def traced(tracer, fn, *args):
    tracer.install()
    try:
        return fn(*args)
    finally:
        tracer.uninstall()


def test_layer_metrics_and_a_margins_pass(tmp_path):
    tracer = tracing.Tracer()
    netlist, path, program = traced(tracer, child.set_up, tmp_path)
    traced(tracer, workloads.probe, tracer, netlist, path, tmp_path, SEED)
    for span in tracer.spans:
        span.idle = span.end - span.start

    metrics = tracing.layer_metrics(tracer, netlist, program, 0.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}

    workload = workloads.WORKLOADS["margins64"](netlist, path, tmp_path, SEED)
    workload.run_pass(tracing.Tracer())
    checks = oracle.Checks()
    workload.check(checks, np.random.default_rng(SEED))
    assert checks.attempted > 0
    assert checks.failed == 0, checks.notes
