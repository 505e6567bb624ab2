"""Cycle-accurate logical simulation of phase-assigned netlists.

Wave pipelining moves one input vector through the pipe per clock cycle;
values are those of plain combinational evaluation, offset by the pipeline
depth in cycles.  Switching events are counted per gate output pin asserting
a logical one, since only ones dissipate power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..netlist import Netlist, missing_ports
from . import engine
from .encode import encode


@dataclass
class SimTrace:
    """Results of one simulation run.

    ``sums``/``couts`` are indexed by input vector (wave); a vector applied
    at cycle t produces its outputs at cycle t + ``offset_cycles``.  Timed
    runs add the static per-node arrival map and any window violations.
    """

    width: int
    n_vectors: int
    offset_cycles: int
    a: np.ndarray
    b: np.ndarray
    sums: np.ndarray
    couts: np.ndarray | None
    gate_events: np.ndarray  # per gate, summed over all vectors
    gate_ids: np.ndarray
    wave_events: np.ndarray  # per vector, summed over gates
    arrivals_ps: dict[int, float] | None = None
    violations: list = field(default_factory=list)

    @property
    def total_events(self) -> int:
        return int(self.gate_events.sum())

    def output_at_cycle(self, cycle: int) -> tuple[int, int | None]:
        """(sum, cout) visible at a given cycle; zeros while the pipe fills."""
        wave = cycle - self.offset_cycles
        if wave < 0 or wave >= self.n_vectors:
            return 0, (0 if self.couts is not None else None)
        cout = int(self.couts[wave]) if self.couts is not None else None
        return int(self.sums[wave]), cout

    def to_csv(self, path) -> None:
        """One row per cycle: inputs entering, outputs emerging, events of
        the wave entering that cycle."""
        n_cycles = self.n_vectors + self.offset_cycles
        with open(path, "w") as fh:
            cols = "cycle,a_hex,b_hex,s_hex"
            if self.couts is not None:
                cols += ",cout"
            fh.write(cols + ",events\n")
            for t in range(n_cycles):
                a = f"{int(self.a[t]):x}" if t < self.n_vectors else ""
                b = f"{int(self.b[t]):x}" if t < self.n_vectors else ""
                s, cout = self.output_at_cycle(t)
                ev = str(int(self.wave_events[t])) if t < self.n_vectors else ""
                row = f"{t},{a},{b},{s:x}"
                if self.couts is not None:
                    row += f",{cout}"
                fh.write(row + f",{ev}\n")


# Words of slot values unpacked to bytes at a time for per-wave events.
_UNPACK_WORDS = 64


def simulate_logic(netlist: Netlist, vectors) -> SimTrace:
    """Run operand vectors through the netlist.

    ``vectors`` is ``(a, b)``: two equal-length 1-D arrays of unsigned
    operands, entry ``k`` of each forming vector ``k``; anything
    ``np.asarray`` turns into uint64 arrays will do.  Raises ``ValueError``
    on operands wider than the netlist and on a missing ``A``/``B`` input
    or ``S`` output port.
    """
    a_vals, b_vals = (np.asarray(v, dtype=np.uint64) for v in vectors)
    if a_vals.ndim != 1 or a_vals.shape != b_vals.shape:
        raise ValueError("A and B stimuli must be 1-D arrays of equal length")
    n = len(a_vals)
    limit = 1 << netlist.width
    if n and (int(a_vals.max()) >= limit or int(b_vals.max()) >= limit):
        raise ValueError(f"operand exceeds {netlist.width}-bit width")
    missing = missing_ports(netlist)
    if missing:
        raise ValueError(f"netlist lacks adder port(s) {', '.join(missing)}")

    program = encode(netlist)
    input_bits = {}
    for i in range(netlist.width):
        shift = np.uint64(i)
        input_bits[f"A{i}"] = ((a_vals >> shift) & np.uint64(1)).astype(np.uint8)
        input_bits[f"B{i}"] = ((b_vals >> shift) & np.uint64(1)).astype(np.uint8)
    values = engine.run_program(program, input_bits, n)

    sums = np.zeros(n, dtype=np.uint64)
    for i in range(netlist.width):
        slot = program.output_slots[f"S{i}"]
        sums |= engine.unpack_bits(values[slot], n).astype(np.uint64) << np.uint64(i)
    couts = None
    if "Cout" in program.output_slots:
        couts = engine.unpack_bits(values[program.output_slots["Cout"]], n)

    # Each gate owns the contiguous slots from its first to the next gate's.
    slot_pops = np.bitwise_count(values).sum(axis=1, dtype=np.int64)
    gate_events = np.add.reduceat(slot_pops, program.gate_starts)

    wave_events = np.zeros(n, dtype=np.int64)
    for w0 in range(0, values.shape[1], _UNPACK_WORDS):
        chunk = values[:, w0 : w0 + _UNPACK_WORDS]
        bits = np.unpackbits(chunk.view(np.uint8), axis=1, bitorder="little")
        lo = w0 * 64
        hi = min(lo + bits.shape[1], n)
        wave_events[lo:hi] = bits[:, : hi - lo].sum(axis=0, dtype=np.int64)

    offset = math.ceil(netlist.total_phases / 4)
    return SimTrace(
        width=netlist.width,
        n_vectors=n,
        offset_cycles=offset,
        a=a_vals,
        b=b_vals,
        sums=sums,
        couts=couts,
        gate_events=gate_events,
        gate_ids=program.gate_ids,
        wave_events=wave_events,
    )


def switching_activity(trace: SimTrace) -> tuple[dict[int, int], int]:
    """Per-gate and total switching-event counts of a trace."""
    per_gate = {
        int(gid): int(ev)
        for gid, ev in zip(trace.gate_ids, trace.gate_events)
    }
    return per_gate, trace.total_events
