"""Independent oracles and the correctness checks behind ``failed_frac``.

Everything here is written from the specification (integer addition, the
LFSR polynomial, the shift-register tap order, per-gate truth tables), not
by calling the code under test, so a wrong answer from rqlsim shows up as a
failed check instead of being compared with itself.
"""

from __future__ import annotations

import math

import numpy as np

from rqlsim import build_kogge_stone, latency, netlist_stats
from rqlsim.gates import N_OUTPUTS, ClockConfig, GateKind, eval_gate
from rqlsim.sim import logic, timing

LFSR16_TAPS = 0xB400  # x^16 + x^14 + x^13 + x^11 + 1
SAMPLED_VECTORS = 32  # vectors checked gate by gate against eval_gate


class Checks:
    """Running tally of checks attempted and failed, with a note per kind of
    failure so that a failing run says what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def expect_all(self, ok: np.ndarray, what: str) -> None:
        """One check per element of a boolean array."""
        ok = np.asarray(ok, dtype=bool)
        bad = int(ok.size - np.count_nonzero(ok))
        self.attempted += int(ok.size)
        self.failed += bad
        if bad:
            self.notes.append(f"{what}: {bad}/{ok.size} wrong")


def lfsr_seed(seed: int) -> int:
    """Map any benchmark seed to a non-zero 16-bit LFSR seed."""
    return seed % 0xFFFF + 1


def lfsr16_bits(n: int, seed: int) -> np.ndarray:
    """Galois LFSR emitting its low bit before each shift."""
    state = seed & 0xFFFF
    out = np.empty(n, dtype=np.uint8)
    for k in range(n):
        bit = state & 1
        out[k] = bit
        state >>= 1
        if bit:
            state ^= LFSR16_TAPS
    return out


def serial_operands(bits: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Operands seen at each cycle by a cleared 2*width-stage shift register:
    A_i is the bit received i cycles ago, B_i the bit received
    2*width-1-i cycles ago."""
    n = len(bits)
    padded = np.concatenate([np.zeros(2 * width, dtype=np.uint64), bits.astype(np.uint64)])
    a = np.zeros(n, dtype=np.uint64)
    b = np.zeros(n, dtype=np.uint64)
    for i in range(width):
        a |= padded[2 * width - i : 2 * width - i + n] << np.uint64(i)
        j = 2 * width - 1 - i
        b |= padded[2 * width - j : 2 * width - j + n] << np.uint64(i)
    return a, b


def check_sums(checks: Checks, a, b, sums, couts, what: str) -> None:
    """Every vector's sum and carry-out of a 64-bit adder against integer
    addition."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    want_s = a + b  # wraps modulo 2**64
    want_c = (want_s < a).astype(np.uint64)
    checks.expect_all(np.asarray(sums, dtype=np.uint64) == want_s, f"{what} sum")
    checks.expect_all(np.asarray(couts, dtype=np.uint64) == want_c, f"{what} carry-out")


def check_event_totals(checks: Checks, trace, what: str) -> None:
    """Per-wave, per-gate and total switching events must agree."""
    total = trace.total_events
    checks.expect(int(trace.gate_events.sum()) == total, f"{what}: gate events != total")
    checks.expect(int(trace.wave_events.sum()) == total, f"{what}: wave events != total")


def reference_gate_events(netlist, a_vals, b_vals) -> tuple[dict[int, int], list[int]]:
    """Gate-by-gate interpretation with ``eval_gate``: per-gate switching
    events (ones on output pins) and the sums, one vector at a time."""
    order = netlist.topo_order()
    input_of = {gid: name for name, gid in netlist.inputs.items()}
    events = {
        gid: 0 for gid in order if N_OUTPUTS[netlist.gate(gid).kind] > 0
    }
    sums = []
    for a, b in zip(a_vals, b_vals):
        a, b = int(a), int(b)
        pins: dict[tuple[int, int], int] = {}
        for gid in order:
            g = netlist.gate(gid)
            if g.kind is GateKind.SOURCE:
                name = input_of[gid]
                word = a if name[0] == "A" else b
                outs = ((word >> int(name[1:])) & 1,)
            else:
                outs = eval_gate(g.kind, [pins[(p.gid, p.pin)] for p in g.fanin])
            for k, v in enumerate(outs):
                pins[(gid, k)] = v
            if gid in events:
                events[gid] += sum(outs)
        s = 0
        for i in range(netlist.width):
            pin = netlist.outputs[f"S{i}"]
            s |= pins[(pin.gid, pin.pin)] << i
        sums.append(s)
    return events, sums


def check_sampled_gates(checks: Checks, netlist, a_vals, b_vals, rng, what: str) -> None:
    """On a sampled subset of vectors, per-gate events from the word kernel
    must equal the gate-by-gate reference."""
    pick = np.sort(rng.choice(len(a_vals), size=min(SAMPLED_VECTORS, len(a_vals)), replace=False))
    a_s, b_s = np.asarray(a_vals)[pick], np.asarray(b_vals)[pick]
    trace = logic.simulate_logic(netlist, (a_s, b_s))
    ref_events, ref_sums = reference_gate_events(netlist, a_s, b_s)
    got = {int(g): int(e) for g, e in zip(trace.gate_ids, trace.gate_events)}
    checks.expect(set(got) == set(ref_events), f"{what}: gate set differs from reference")
    checks.expect_all(
        np.array([got.get(g) == e for g, e in ref_events.items()]),
        f"{what}: per-gate events vs eval_gate",
    )
    checks.expect_all(
        np.asarray(trace.sums, dtype=np.uint64) == np.asarray(ref_sums, dtype=np.uint64),
        f"{what}: sums vs eval_gate",
    )


def check_violations(checks: Checks, netlist, clock: ClockConfig, trace, what: str) -> None:
    """Reported window violations are exactly the junction-bearing gates
    whose arrival exceeds the phase window."""
    window = clock.window_ps
    want = {
        g.gid
        for g in netlist.gates
        if g.spec.jj_count > 0 and trace.arrivals_ps[g.gid] > window
    }
    checks.expect({v.gid for v in trace.violations} == want, f"{what}: violation set")


def check_margin_curve(checks: Checks, netlist, rows: list[tuple[float, float, float, float]]) -> None:
    """``rows`` are (frequency_hz, lower_db, upper_db, width_db) read from
    margins.csv.  At each b_min the windows are clean, just below it they
    are not; lower_db never falls as frequency rises; the upper limit is
    the same everywhere; the calibration point shows 4.6 dB."""
    # margins.csv rounds to 6 decimals in dB, i.e. ~1e-7 relative in bias.
    rel = 1e-6
    for f, lower, upper, width in rows:
        checks.expect(not math.isnan(lower), f"margins: no operating point at {f:g} Hz")
        b_min = 10.0 ** (lower / 20.0)
        clean = not timing.check_windows(netlist, ClockConfig(f, b_min * (1 + rel)))[1]
        below = bool(timing.check_windows(netlist, ClockConfig(f, b_min * (1 - rel)))[1])
        checks.expect(clean, f"margins: violations at b_min, {f:g} Hz")
        checks.expect(below, f"margins: clean just below b_min, {f:g} Hz")
        checks.expect(abs(width - (upper - lower)) < 1e-5, f"margins: width at {f:g} Hz")
    lowers = [r[1] for r in rows]
    checks.expect(all(x <= y for x, y in zip(lowers, lowers[1:])), "margins: lower_db decreases")
    checks.expect(len({r[2] for r in rows}) == 1, "margins: upper_db varies")
    at_10 = [r for r in rows if abs(r[0] - 10e9) < 1.0]
    checks.expect(
        len(at_10) == 1 and abs(at_10[0][3] - 4.6) < 1e-5,
        "margins: calibrated width at 10 GHz != 4.6 dB",
    )


def check_paper_pins(checks: Checks) -> None:
    """The paper's 8-bit figures: 815 JJ at 162 uA, 6 phases = 150 ps at
    10 GHz, and a 4.6 dB margin at 10 GHz with the default ceiling."""
    adder8 = build_kogge_stone(8)
    stats = netlist_stats(adder8)
    checks.expect(stats.jj_total == 815, "pins: 8-bit junction count != 815")
    checks.expect(abs(stats.ic_avg_ua - 162.0) < 0.5, "pins: 8-bit Ic average != 162 uA")
    rep = latency(adder8, 10e9)
    checks.expect(
        (rep.phases, rep.cycles, rep.latency_ps) == (6, 1.5, 150.0),
        "pins: 8-bit latency != 6 phases / 150 ps",
    )
    width = timing.margin_sweep(adder8, [10e9]).points[0].width_db
    checks.expect(abs(width - 4.6) < 0.05, "pins: 8-bit margin at 10 GHz != 4.6 dB")
