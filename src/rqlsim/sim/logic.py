"""Cycle-accurate logical simulation of phase-assigned netlists.

Wave pipelining moves one input vector through the pipe per clock cycle;
values are those of plain combinational evaluation, offset by the pipeline
depth in cycles.  Switching events are counted per gate output pin asserting
a logical one, since only ones dissipate power.

``simulate_logic`` holds one block of ``_BLOCK_WORDS`` words of the slot/word
value matrix at a time.  Per block it packs the operands with one 64 x 64 bit
transpose per 64 vectors (``engine.transpose64``) for ``engine.run_program``,
reads the sums back with the same transpose, adds the per-slot popcounts into
a running total, and counts events per wave with a carry-save adder tree
over bit planes (a vertical population count, see ``_wave_events``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..netlist import Netlist, missing_ports
from . import engine
from .encode import encode

# Rows of trace.csv formatted at a time, which bounds the writer's memory.
_CSV_ROWS = 1 << 13
# Words of vectors simulated at a time.  On the 64-bit adder at 120k vectors,
# 128 / 256 / 512 / 1024-word blocks took a median 152 / 134 / 138 / 137 ms,
# and `sim --prbs --check` peaked at 44 / 49 / 61 / 83 MB RSS.
_BLOCK_WORDS = 256
# Words of slot values reduced at a time for per-wave events.
_COUNT_WORDS = 64
_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


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

    def to_csv(self, path) -> None:
        """One row per cycle: inputs entering, outputs emerging, events of
        the wave entering that cycle.  ``_CSV_ROWS`` rows at a time are
        formatted as one byte matrix of right-aligned digit columns, with a
        mask that drops leading zeros and the blank cells."""
        n_cycles = self.n_vectors + self.offset_cycles
        cols = "cycle,a_hex,b_hex,s_hex"
        if self.couts is not None:
            cols += ",cout"
        with open(path, "wb") as fh:
            fh.write(f"{cols},events\n".encode())
            for t0 in range(0, n_cycles, _CSV_ROWS):
                fh.write(self._csv_rows(t0, min(t0 + _CSV_ROWS, n_cycles)))

    def _csv_rows(self, t0: int, t1: int) -> bytes:
        n, offset = self.n_vectors, self.offset_cycles
        live = max(0, min(n, t1) - t0)  # rows whose wave enters: t < n

        def entering(values, hex_digits):
            chars, keep = _cells(_window(values, t0, t1), hex_digits)
            keep[live:] = False  # drain rows leave the cell blank
            return chars, keep

        def emerging(values, hex_digits):  # 0 while the pipe fills
            return _cells(_window(values, t0 - offset, t1 - offset), hex_digits)

        always = np.ones((t1 - t0, 1), bool)
        comma = (np.full((t1 - t0, 1), ord(","), np.uint8), always)
        cells = [
            _cells(np.arange(t0, t1, dtype=np.uint64), False),
            comma,
            entering(self.a, True),
            comma,
            entering(self.b, True),
            comma,
            emerging(self.sums, True),
        ]
        if self.couts is not None:
            cells += [comma, emerging(self.couts, False)]
        newline = (np.full((t1 - t0, 1), ord("\n"), np.uint8), always)
        cells += [comma, entering(self.wave_events, False), newline]
        chars = np.hstack([c for c, _ in cells])
        keep = np.hstack([k for _, k in cells])
        return chars[keep].tobytes()


def _window(values, lo: int, hi: int) -> np.ndarray:
    """``values[lo:hi]`` as uint64, with zeros where the range leaves
    ``values``."""
    out = np.zeros(hi - lo, dtype=np.uint64)
    a, b = max(lo, 0), min(hi, len(values))
    if a < b:
        out[a - lo : b - lo] = values[a:b]
    return out


def _cells(values: np.ndarray, hex_digits: bool) -> tuple[np.ndarray, np.ndarray]:
    """Right-aligned digit columns of uint64 ``values``, in lowercase hex or
    decimal, and the mask that keeps every digit but the leading zeros (the
    last digit always stays)."""
    top = int(values.max())
    if hex_digits:
        n = max(1, -(-top.bit_length() // 4))
        shifts = 4 * np.arange(n - 1, -1, -1, dtype=np.uint64)
        high = values[:, None] >> shifts
        digits = high & np.uint64(15)
    else:
        n = len(str(top))
        powers = np.uint64(10) ** np.arange(n - 1, -1, -1, dtype=np.uint64)
        high = values[:, None] // powers
        digits = high % np.uint64(10)
    keep = high != 0
    keep[:, -1] = True
    return _DIGITS[digits], keep


def _add_pairs(planes: np.ndarray) -> np.ndarray:
    """Add rows ``2i`` and ``2i + 1`` of ``planes``: k bit planes (plane j
    has weight 2**j) of m rows of words, as k-bit numbers, one per bit
    position.  Returns k + 1 planes of ceil(m / 2) rows; an odd last row
    passes through."""
    k, m, n_words = planes.shape
    h = m // 2
    out = np.empty((k + 1, m - h, n_words), dtype=np.uint64)
    x, y = planes[:, 0 : 2 * h : 2], planes[:, 1::2]
    # Plane 0 takes no carry in; the planes above are full adders:
    # s = x ^ y ^ c, c = x & y | c & (x ^ y).
    carry = x[0] & y[0]
    np.bitwise_xor(x[0], y[0], out=out[0, :h])
    half = np.empty_like(carry)
    both = np.empty_like(carry)
    for j in range(1, k):
        np.bitwise_xor(x[j], y[j], out=half)
        np.bitwise_xor(half, carry, out=out[j, :h])
        np.bitwise_and(carry, half, out=carry)
        np.bitwise_and(x[j], y[j], out=both)
        np.bitwise_or(carry, both, out=carry)
    out[k, :h] = carry
    if m % 2:
        out[:k, h] = planes[:, -1]
        out[k, h] = 0
    return out


def _wave_events(values: np.ndarray, n: int) -> np.ndarray:
    """Ones per vector over all slot rows: a vertical population count.

    Per block of ``_COUNT_WORDS`` words, a carry-save tree adds the slot
    rows pairwise as numbers held in bit planes, halving the rows at each
    level, until one row of ceil(log2(slots)) + 1 planes is left; each
    plane is then unpacked and weighted by its power of two."""
    counts = np.zeros(values.shape[1] * 64, dtype=np.int64)
    if values.shape[0] == 0:
        return counts[:n]
    for w0 in range(0, values.shape[1], _COUNT_WORDS):
        planes = values[None, :, w0 : w0 + _COUNT_WORDS]
        while planes.shape[1] > 1:
            planes = _add_pairs(planes)
        rows = np.ascontiguousarray(planes[:, 0]).view(np.uint8)
        bits = np.unpackbits(rows, axis=1, bitorder="little")
        weights = np.left_shift(1, np.arange(len(bits), dtype=np.int64))
        counts[w0 * 64 : w0 * 64 + bits.shape[1]] = weights @ bits
    return counts[:n]


def _bit_rows(vals: np.ndarray, n_words: int) -> np.ndarray:
    """Operand values -> ``(n_words, 64)`` uint64 whose column i holds bit i
    of every value, packed: one bit transpose per 64 values."""
    rows = np.zeros((n_words, 64), dtype=np.uint64)
    rows.reshape(-1)[: len(vals)] = vals
    engine.transpose64(rows)
    return rows


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
    sum_slots = [program.output_slots[f"S{i}"] for i in range(min(netlist.width, 64))]
    cout_slot = program.output_slots.get("Cout")
    n_words = -(-n // 64)
    sums = np.empty(n, dtype=np.uint64)
    cout_words = np.empty(n_words, dtype=np.uint64)
    slot_pops = np.zeros(program.n_slots, dtype=np.int64)
    wave_events = np.empty(n, dtype=np.int64)
    # uint64 operands have no bit 64 and up: a wider netlist gets zeros there.
    no_bit = np.zeros(_BLOCK_WORDS, dtype=np.uint64)
    for w0 in range(0, n_words, _BLOCK_WORDS):
        v0, v1 = w0 * 64, min(n, (w0 + _BLOCK_WORDS) * 64)
        words = -(-(v1 - v0) // 64)
        a_rows, b_rows = (_bit_rows(v[v0:v1], words) for v in (a_vals, b_vals))
        input_words = {}
        for i in range(netlist.width):
            input_words[f"A{i}"] = a_rows[:, i] if i < 64 else no_bit[:words]
            input_words[f"B{i}"] = b_rows[:, i] if i < 64 else no_bit[:words]
        values = engine.run_program(program, input_words, v1 - v0)
        rows = np.zeros((words, 64), dtype=np.uint64)
        rows[:, : len(sum_slots)] = values[sum_slots].T
        engine.transpose64(rows)
        sums[v0:v1] = rows.reshape(-1)[: v1 - v0]
        if cout_slot is not None:
            cout_words[w0 : w0 + words] = values[cout_slot]
        slot_pops += np.bitwise_count(values).sum(axis=1, dtype=np.int64)
        wave_events[v0:v1] = _wave_events(values, v1 - v0)

    couts = None
    if cout_slot is not None:
        couts = np.unpackbits(cout_words.view(np.uint8), bitorder="little")[:n]
    # Each gate owns the contiguous slots from its first to the next gate's.
    gate_events = np.add.reduceat(slot_pops, program.gate_starts)

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
