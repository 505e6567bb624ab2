"""In-memory spans around rqlsim's public layer calls.

The tracer wraps the public functions of each layer where their callers
look them up (module attributes and class attributes), so a run executes
the unchanged CLI and library code and records one span per layer call:
name, start, end, parent span and run id.  Wrappers are installed for one
traced pass at a time and removed after it; the source tree is never
modified.  The benchmark's own workload calls are spans too ("call").
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager

from rqlsim.netlist import Netlist
from rqlsim.sim.encode import OP_BUF
from rqlsim.sim.harness import InputProgram
from rqlsim.sim.logic import SimTrace

# (span name, owner, attribute).  A function imported by name into another
# module is wrapped in each module that calls it; an attribute a later
# version of the program no longer has is skipped.
LAYER_CALLS = [
    ("adder.build", "rqlsim.adder", "build_kogge_stone"),
    ("netlist.save", Netlist, "save"),
    ("netlist.load", Netlist, "load"),
    ("encode", "rqlsim.sim.encode", "encode"),
    ("encode", "rqlsim.sim.logic", "encode"),
    ("harness.prbs", InputProgram, "from_prbs"),
    ("harness.pairs", "rqlsim.sim.harness", "shift_register_pairs"),
    ("harness.pairs", "rqlsim.cli", "shift_register_pairs"),
    ("engine.run_program", "rqlsim.sim.engine", "run_program"),
    ("logic.simulate", "rqlsim.sim.logic", "simulate_logic"),
    ("logic.simulate", "rqlsim.sim.timing", "simulate_logic"),
    ("logic.simulate", "rqlsim.cli", "simulate_logic"),
    ("logic.to_csv", SimTrace, "to_csv"),
    ("timing.simulate_timed", "rqlsim.sim.timing", "simulate_timed"),
    ("timing.arrival", "rqlsim.sim.timing", "arrival_times"),
    ("timing.sweep", "rqlsim.sim.timing", "margin_sweep"),
    ("timing.sweep", "rqlsim.cli", "margin_sweep"),
    ("timing.calibrate", "rqlsim.sim.timing", "calibrate_overbias"),
    ("timing.calibrate", "rqlsim.cli", "calibrate_overbias"),
    ("power.activity", "rqlsim.power", "activity_power"),
    ("cli", "rqlsim.cli", "main"),
]

# Work counts read from a layer call's result.
COUNTERS = {
    "engine.run_program": lambda values: int(values.size),  # slot-words
    "logic.simulate": lambda trace: trace.total_events,
    "timing.sweep": lambda curve: len(curve.points),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "count", "idle")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.count = None
        self.idle = None  # duration at idle-core speed, set by scale()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = "setup"
        self._open: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sp = Span(name, time.perf_counter(), parent, self.run)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, target):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = target(*args, **kwargs)
                if counter is not None:
                    sp.count = counter(result)
                return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; the benchmark's own calls use this."""
        with self.span(name):
            return fn(*args, **kwargs)

    def install(self) -> None:
        for name, owner, attr in LAYER_CALLS:
            if isinstance(owner, str):
                owner = importlib.import_module(owner)
            raw = vars(owner).get(attr)
            if raw is None:
                continue
            traced = self._wrap(name, getattr(owner, attr))
            setattr(owner, attr, staticmethod(traced) if isinstance(raw, classmethod) else traced)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def scale(self, probe) -> None:
        """Give the spans of the current run their idle-core durations."""
        for s in self.spans:
            if s.run == self.run:
                s.idle = probe.pass_times([(s.start, s.end)])[1]

    def has(self, name: str) -> bool:
        """Whether a traced pass or the probe has called this layer."""
        return any(s.name == name and _group(s) in ("pass", "probe") for s in self.spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "run": s.run,
                            "count": s.count,
                            "idle": s.idle,
                        }
                    )
                    + "\n"
                )


def _group(span: Span) -> str:
    return span.run.split("-")[0]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's idle-core duration minus that of its direct children
    (one thread, so children never overlap)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.idle
    return [s.idle - c for s, c in zip(spans, covered)]


def layer_metrics(tracer: Tracer, netlist, program, overhead_s: float) -> dict:
    """Per-layer metrics: medians over the calls of each layer, in
    idle-core seconds (see speed.py).

    A layer's calls are taken from the traced workload passes; a layer the
    workload never calls is taken from the traced set-up, and failing that
    from the probe that follows the passes.
    """
    spans = tracer.spans
    selfs = self_times(spans)

    def pick(name):
        for group in ("pass", "setup", "probe"):
            idx = [k for k, s in enumerate(spans) if s.name == name and _group(s) == group]
            if idx:
                return idx
        raise RuntimeError(f"no span recorded for layer call {name!r}")

    def med(name):
        return statistics.median(spans[k].idle for k in pick(name))

    def med_self(name):
        return statistics.median(selfs[k] for k in pick(name))

    def med_count(name):
        return statistics.median(spans[k].count for k in pick(name))

    run_calls = pick("engine.run_program")
    arrival_s = med("timing.arrival")
    point_s = statistics.median(spans[k].idle / spans[k].count for k in pick("timing.sweep"))
    values = {
        "adder.build_s": med("adder.build"),
        "adder.gates": len(netlist),
        "netlist.save_s": med("netlist.save"),
        "netlist.load_s": med("netlist.load"),
        "encode.s": med("encode"),
        "encode.slots": program.n_slots,
        "encode.buf_slots": int((program.ops == OP_BUF).sum()),
        "harness.prbs_s": med("harness.prbs"),
        "harness.pairs_s": med("harness.pairs"),
        "engine.run_program_s": med("engine.run_program"),
        "engine.slot_words": med_count("engine.run_program"),
        "engine.slot_words_per_s": statistics.median(
            spans[k].count / spans[k].idle for k in run_calls
        ),
        "logic.simulate_s": med("logic.simulate"),
        "logic.to_csv_s": med("logic.to_csv"),
        "logic.events": med_count("logic.simulate"),
        "logic.self_s": med_self("logic.simulate"),
        "timing.arrival_s": arrival_s,
        "timing.point_s": point_s,
        "timing.calibrate_s": med("timing.calibrate"),
        "timing.passes_per_point": point_s / arrival_s,
        "power.activity_s": med("power.activity"),
        "cli.self_s": med_self("cli"),
        "trace.overhead_s": overhead_s,
    }
    return values
