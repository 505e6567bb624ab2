"""The three workloads.  Each is one closed-loop caller in one thread: the
next call is issued when the previous one returns.

A workload object prepares its inputs from the seed, runs passes
(``run_pass`` issues each workload call through ``rec.call``, which times
it) and, after the passes, checks every output (``check`` returns a digest
of the simulated statistics).  Layers are always reached through module or
class attributes, so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np

import rqlsim.cli
import rqlsim.power
import rqlsim.sim.harness
import rqlsim.sim.logic
import rqlsim.sim.timing
from rqlsim.gates import ClockConfig
from rqlsim.sim.harness import InputProgram

import oracle

PRBS_CYCLES = 120_000
TIMED_CALLS = 200
TIMED_VECTORS = 256
TIMED_FREQS = [4e9 + 1e9 * k for k in range(13)]  # 4..16 GHz
MARGIN_STEPS = 13
PROBE_CYCLES = 4096
PROBE_FREQ = 10e9


def _cli(rec, argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process as one workload call; returns the exit code
    and the printed text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = rec.call("call", rqlsim.cli.main, argv)
    return rc, buf.getvalue()


def _digest_files(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class PrbsWide:
    """``rqlsim sim --prbs <seed> --cycles 120000 --check`` on the 64-bit adder."""

    name = "prbs64_wide"
    items_per_pass = PRBS_CYCLES

    def __init__(self, netlist, netlist_path: Path, workdir: Path, seed: int):
        self.netlist = netlist
        self.out = workdir / "sim"
        self.lfsr_seed = oracle.lfsr_seed(seed)
        self.argv = [
            "--out", str(self.out), "sim", "--netlist", str(netlist_path),
            "--prbs", hex(self.lfsr_seed), "--cycles", str(PRBS_CYCLES), "--check",
        ]
        self.passes = []  # (exit code, printed text, output digest)

    def run_pass(self, rec):
        rc, text = _cli(rec, self.argv)
        self.passes.append(
            (rc, text, _digest_files(self.out / "trace.csv", self.out / "summary.json"))
        )

    def check(self, checks: oracle.Checks, rng) -> str:
        width = self.netlist.width
        for rc, text, digest in self.passes:
            checks.expect(rc == 0, f"sim exit code {rc}")
            checks.expect(
                f"check: {PRBS_CYCLES}/{PRBS_CYCLES} pass" in text, "sim: CLI check line"
            )
            checks.expect(digest == self.passes[0][2], "sim: outputs differ between passes")

        bits = oracle.lfsr16_bits(PRBS_CYCLES + 2 * width - 1, self.lfsr_seed)
        a, b = (v[-PRBS_CYCLES:] for v in oracle.serial_operands(bits, width))

        rows = (self.out / "trace.csv").read_text().splitlines()[1:]
        cols = list(zip(*(r.split(",") for r in rows)))
        n = PRBS_CYCLES
        offset = len(rows) - n
        csv_a = np.array([int(x, 16) for x in cols[1][:n]], dtype=np.uint64)
        csv_b = np.array([int(x, 16) for x in cols[2][:n]], dtype=np.uint64)
        csv_s = np.array([int(x, 16) for x in cols[3][offset:]], dtype=np.uint64)
        csv_c = np.array([int(x) for x in cols[4][offset:]], dtype=np.uint64)
        csv_ev = np.array([int(x) for x in cols[5][:n]], dtype=np.int64)
        checks.expect_all(csv_a == a, "sim: A operands vs shift-register oracle")
        checks.expect_all(csv_b == b, "sim: B operands vs shift-register oracle")
        oracle.check_sums(checks, a, b, csv_s, csv_c, "sim")

        summary = (self.out / "summary.json").read_text()
        trace = rqlsim.sim.logic.simulate_logic(self.netlist, (a, b))
        oracle.check_event_totals(checks, trace, "sim")
        checks.expect(
            f'"total_events": {trace.total_events}' in summary, "sim: summary total_events"
        )
        checks.expect_all(trace.wave_events == csv_ev, "sim: per-wave events in trace.csv")
        oracle.check_sampled_gates(checks, self.netlist, a, b, rng, "sim")
        h = hashlib.sha256(self.passes[0][2].encode())
        h.update(trace.gate_events.tobytes())
        return f"events={trace.total_events} sha256={h.hexdigest()}"


class TimedBatches:
    """``simulate_timed`` on 256 random vector pairs per call, cycling the
    clock over 4..16 GHz."""

    name = "timed64_batches"
    items_per_pass = TIMED_CALLS * TIMED_VECTORS

    def __init__(self, netlist, netlist_path: Path, workdir: Path, seed: int):
        self.netlist = netlist
        rng = np.random.default_rng(seed)
        hi = 1 << netlist.width
        self.batches = [
            (
                rng.integers(0, hi, TIMED_VECTORS, dtype=np.uint64),
                rng.integers(0, hi, TIMED_VECTORS, dtype=np.uint64),
            )
            for _ in range(TIMED_CALLS)
        ]
        self.clocks = [
            ClockConfig(TIMED_FREQS[(seed + k) % len(TIMED_FREQS)]) for k in range(TIMED_CALLS)
        ]
        self.checks = oracle.Checks()
        self.digests = []  # per pass: the per-call digests

    def run_pass(self, rec):
        digests = []
        for (a, b), clock in zip(self.batches, self.clocks):
            trace = rec.call("call", rqlsim.sim.timing.simulate_timed, self.netlist, clock, (a, b))
            what = f"timed {clock.frequency_hz / 1e9:g} GHz"
            oracle.check_sums(self.checks, a, b, trace.sums, trace.couts, what)
            oracle.check_event_totals(self.checks, trace, what)
            oracle.check_violations(self.checks, self.netlist, clock, trace, what)
            h = hashlib.sha256(trace.sums.tobytes())
            h.update(np.asarray(trace.couts, dtype=np.uint8).tobytes())
            h.update(trace.gate_events.tobytes())
            h.update(trace.wave_events.tobytes())
            h.update(repr(sorted(v.gid for v in trace.violations)).encode())
            digests.append((h.hexdigest(), trace.total_events))
        self.digests.append(digests)

    def check(self, checks: oracle.Checks, rng) -> str:
        checks.attempted += self.checks.attempted
        checks.failed += self.checks.failed
        checks.notes += self.checks.notes
        for digests in self.digests:
            checks.expect(digests == self.digests[0], "timed: results differ between passes")
        a, b = self.batches[0]
        oracle.check_sampled_gates(checks, self.netlist, a, b, rng, "timed")
        h = hashlib.sha256("".join(d for d, _ in self.digests[0]).encode())
        events = sum(e for _, e in self.digests[0])
        return f"events={events} sha256={h.hexdigest()}"


class Margins:
    """``rqlsim margins --steps 13 --calibrate`` on the 64-bit adder.  The
    sweep has no random input, so the seed does not change it."""

    name = "margins64"
    items_per_pass = MARGIN_STEPS

    def __init__(self, netlist, netlist_path: Path, workdir: Path, seed: int):
        self.netlist = netlist
        self.out = workdir / "margins"
        self.argv = [
            "--out", str(self.out), "margins", "--netlist", str(netlist_path),
            "--steps", str(MARGIN_STEPS), "--calibrate",
        ]
        self.passes = []

    def run_pass(self, rec):
        rc, text = _cli(rec, self.argv)
        self.passes.append((rc, text, _digest_files(self.out / "margins.csv")))

    def check(self, checks: oracle.Checks, rng) -> str:
        for rc, text, digest in self.passes:
            checks.expect(rc == 0, f"margins exit code {rc}")
            checks.expect(
                (text, digest) == self.passes[0][1:], "margins: outputs differ between passes"
            )
        lines = (self.out / "margins.csv").read_text().splitlines()[1:]
        rows = [tuple(float(x) for x in ln.split(",")) for ln in lines]
        checks.expect(len(rows) == MARGIN_STEPS, "margins: point count")
        oracle.check_margin_curve(checks, self.netlist, rows)
        oracle.check_paper_pins(checks)
        return f"points={len(rows)} sha256={self.passes[0][2]}"


WORKLOADS = {w.name: w for w in (PrbsWide, TimedBatches, Margins)}


def probe(tracer, netlist, netlist_path: Path, workdir: Path, seed: int) -> None:
    """Call each layer the traced passes did not reach, through its public
    function, so that every per-layer metric exists on every workload.
    Spans carry run id "probe"."""
    tracer.run = "probe"
    if not tracer.has("cli"):
        rc, _ = _cli(tracer, [
            "--out", str(workdir / "probe"), "sim", "--netlist", str(netlist_path),
            "--prbs", hex(oracle.lfsr_seed(seed)), "--cycles", str(PROBE_CYCLES), "--check",
        ])
        if rc != 0:
            raise RuntimeError(f"probe sim exited with {rc}")
    if not (tracer.has("harness.prbs") and tracer.has("harness.pairs")):
        bits = InputProgram.from_prbs(PROBE_CYCLES, oracle.lfsr_seed(seed)).serial_bits
        rqlsim.sim.harness.shift_register_pairs(bits, netlist.width)
    rng = np.random.default_rng(seed)
    hi = 1 << netlist.width
    pairs = (
        rng.integers(0, hi, PROBE_CYCLES, dtype=np.uint64),
        rng.integers(0, hi, PROBE_CYCLES, dtype=np.uint64),
    )
    trace = rqlsim.sim.logic.simulate_logic(netlist, pairs)
    if not tracer.has("logic.to_csv"):
        trace.to_csv(workdir / "probe-trace.csv")
    if not tracer.has("timing.arrival"):
        rqlsim.sim.timing.arrival_times(netlist, ClockConfig(PROBE_FREQ))
    if not (tracer.has("timing.calibrate") and tracer.has("timing.sweep")):
        ceiling = rqlsim.sim.timing.calibrate_overbias(netlist, PROBE_FREQ)
        rqlsim.sim.timing.margin_sweep(netlist, [PROBE_FREQ], ceiling=ceiling)
    rqlsim.power.activity_power(trace, netlist, PROBE_FREQ)
