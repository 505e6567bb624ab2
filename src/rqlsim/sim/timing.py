"""Static per-phase timing and clock-power operating margins.

Within one phase window, a pulse accumulates one junction delay per
sequential junction along its in-phase path, plus stripline propagation at
100 um/ps where a passive interconnect is annotated.  A gate whose output
settles after the acceptance window of its phase misses the clock peak and
is flagged.  At relative bias ``b`` a gate's arrival is the largest
``L + S * d0 / b`` over its Pareto envelope of in-phase paths (``L``
stripline ps, ``S`` sequential junctions), built once per netlist; the
window check takes it for every gate at once, as one ``maximum.reduceat``
over the envelope's pairs laid out flat.  The lower clock-power margin, the
smallest float bias that clears every window, is an exact bisection of the
bias's bit pattern on that same arithmetic.  The upper margin is the
over-bias ceiling, a calibrated constant.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from ..gates import ClockConfig, GateKind, junction_delay
from ..netlist import Netlist, per_netlist
from .logic import simulate_logic

PTL_SPEED_UM_PER_PS = 100.0

# Over-bias ceiling (relative amplitude) calibrated once so the 8-bit adder
# shows a 4.6 dB clock-power margin at 10 GHz; see calibrate_overbias.
DEFAULT_OVERBIAS = 1.63

# Smallest relative bias a margin is resolved to.
_BIAS_FLOOR = 1e-6


@dataclass(frozen=True)
class TimingViolation:
    gid: int
    name: str
    phase: int
    arrival_ps: float
    window_ps: float

    @property
    def slack_ps(self) -> float:
        return self.window_ps - self.arrival_ps


def arrival_times(netlist: Netlist, clock: ClockConfig) -> dict[int, float]:
    """Static arrival offset (ps) of every gate output within its phase."""
    flat = _flat_envelope(netlist)
    return dict(zip(flat.gids, flat.arrivals(clock).tolist()))


def check_windows(
    netlist: Netlist, clock: ClockConfig
) -> tuple[dict[int, float], list[TimingViolation]]:
    flat = _flat_envelope(netlist)
    arr = flat.arrivals(clock)
    values = arr.tolist()
    window = clock.window_ps
    violations = []
    for k in np.flatnonzero(arr[flat.checked] > window):
        g = flat.checked_gates[k]
        violations.append(
            TimingViolation(g.gid, g.name, g.phase, values[flat.checked[k]], window)
        )
    return dict(zip(flat.gids, values)), violations


def simulate_timed(netlist: Netlist, clock: ClockConfig, vectors):
    """``simulate_logic`` of operand arrays ``vectors = (a, b)``, plus
    arrival offsets and window violations."""
    trace = simulate_logic(netlist, vectors)
    arr, violations = check_windows(netlist, clock)
    trace.arrivals_ps = arr
    trace.violations = violations
    return trace


@dataclass(frozen=True)
class MarginPoint:
    frequency_hz: float
    lower_db: float  # clock power relative to nominal, dB
    upper_db: float

    @property
    def operable(self) -> bool:
        return not math.isnan(self.lower_db) and self.lower_db <= self.upper_db

    @property
    def width_db(self) -> float:
        return self.upper_db - self.lower_db


@dataclass
class MarginCurve:
    points: list[MarginPoint]

    def widths(self) -> list[float]:
        return [p.width_db for p in self.points]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("frequency_hz,lower_db,upper_db,width_db\n")
            for p in self.points:
                fh.write(
                    f"{p.frequency_hz:.6g},{p.lower_db:.6f},"
                    f"{p.upper_db:.6f},{p.width_db:.6f}\n"
                )


def _power_db(bias_rel: float) -> float:
    return 20.0 * math.log10(bias_rel)


def _check_ceiling(ceiling: float) -> None:
    if not ceiling > 0:  # also rejects NaN; inf is a valid ceiling
        raise ValueError(f"over-bias ceiling must be > 0, got {ceiling}")


def _pareto(pairs) -> tuple[tuple[float, int], ...]:
    """The ``(L, S)`` pairs that no other pair matches or beats in both."""
    front: list[tuple[float, int]] = []
    for l, s in sorted(pairs, reverse=True):
        if not front or s > front[-1][1]:
            front.append((l, s))
    return tuple(front)


@per_netlist
def _path_envelope(netlist: Netlist) -> dict[int, tuple[tuple[float, int], ...]]:
    """Pareto-maximal ``(L, S)`` pairs over each gate's in-phase paths:
    ``L`` stripline ps, ``S`` sequential junctions."""
    env = {}
    for gid in netlist.topo_order():
        g = netlist.gate(gid)
        paths = [(0.0, 0)]
        for pin in g.fanin:
            if netlist.gate(pin.gid).phase == g.phase:
                paths += env[pin.gid]
        ptl = 0.0
        if g.kind is GateKind.PTL_RECEIVER:
            ptl = g.ptl_um / PTL_SPEED_UM_PER_PS
        env[gid] = _pareto((l + ptl, s + g.spec.seq_depth) for l, s in paths)
    return env


class _FlatEnvelope:
    """``_path_envelope`` as flat arrays: the pairs of gate ``gids[k]`` are
    ``L[starts[k]:starts[k + 1]]`` and ``S[...]``, in envelope order.
    ``checked`` indexes the gates ``check_windows`` checks, in
    ``netlist.gates`` order, and ``checked_gates`` holds those gates."""

    def __init__(self, netlist: Netlist):
        env = _path_envelope(netlist)
        self.gids = list(env)
        sizes = np.fromiter((len(f) for f in env.values()), np.intp, len(self.gids))
        self.starts = np.cumsum(sizes) - sizes
        pairs = [p for front in env.values() for p in front]
        self.L = np.array([l for l, _ in pairs], dtype=np.float64)
        self.S = np.array([s for _, s in pairs], dtype=np.float64)
        index = {gid: k for k, gid in enumerate(self.gids)}
        self.checked_gates = [g for g in netlist.gates if g.spec.jj_count > 0]
        self.checked = np.array([index[g.gid] for g in self.checked_gates], dtype=np.intp)

    def arrivals(self, clock: ClockConfig) -> np.ndarray:
        """Arrival per gate of ``gids``: the largest ``L + S * d`` over its
        pairs, the same float arithmetic as a loop over ``_path_envelope``."""
        d = junction_delay(clock.bias_rel)
        if not self.gids:
            return np.zeros(0)
        return np.maximum.reduceat(self.L + self.S * d, self.starts)


@per_netlist
def _flat_envelope(netlist: Netlist) -> _FlatEnvelope:
    return _FlatEnvelope(netlist)


def _window_envelope(netlist: Netlist) -> tuple[tuple[float, int], ...]:
    """One envelope for every gate ``check_windows`` checks."""
    env = _path_envelope(netlist)
    return _pareto(p for g in netlist.gates if g.spec.jj_count for p in env[g.gid])


def _min_bias(envelope, frequency_hz, ceiling) -> float:
    window = ClockConfig(frequency_hz).window_ps

    def clean(bias: float) -> bool:
        d = junction_delay(bias)
        return all(l + s * d <= window for l, s in envelope)

    hi = min(ceiling, sys.float_info.max)
    if any(l > window or (l == window and s) for l, s in envelope) or not clean(hi):
        return math.nan
    if clean(_BIAS_FLOOR):
        return min(_BIAS_FLOOR, hi)
    # Positive floats sort like their bit patterns: bisect the integers.
    lo, hi = struct.unpack("<2q", struct.pack("<2d", _BIAS_FLOOR, hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if clean(_from_bits(mid)) else (mid, hi)
    return _from_bits(hi)


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def min_operating_bias(
    netlist: Netlist,
    frequency_hz: float,
    *,
    ceiling: float = DEFAULT_OVERBIAS,
) -> float:
    """Smallest float relative bias (floor 1e-6) at which ``check_windows``
    finds no violation, or NaN if none lies at or below the ceiling or
    stripline delay alone fills a window."""
    _check_ceiling(ceiling)
    envelope = _window_envelope(netlist)
    return _min_bias(envelope, frequency_hz, ceiling)


def margin_sweep(
    netlist: Netlist,
    frequencies,
    *,
    ceiling: float = DEFAULT_OVERBIAS,
) -> MarginCurve:
    """Clock-power margins over a frequency range.

    The upper limit is the over-bias ceiling and therefore identical at
    every frequency; the lower limit rises with clock rate as the phase
    windows shrink.
    """
    freqs = list(frequencies)
    if not freqs:
        raise ValueError("empty frequency range")
    _check_ceiling(ceiling)
    upper = _power_db(ceiling)
    envelope = _window_envelope(netlist)
    points = []
    for f in freqs:
        b_min = _min_bias(envelope, f, ceiling)
        lower = _power_db(b_min) if not math.isnan(b_min) else math.nan
        points.append(MarginPoint(f, lower, upper))
    return MarginCurve(points)


def calibrate_overbias(
    netlist: Netlist,
    frequency_hz: float = 10e9,
    width_db: float = 4.6,
) -> float:
    """Over-bias ceiling that makes the margin at one frequency come out to
    ``width_db`` exactly.  This is a calibration, not a prediction: the
    physics of gate over-bias is outside the model."""
    b_min = min_operating_bias(netlist, frequency_hz, ceiling=math.inf)
    if math.isnan(b_min):
        raise ValueError("circuit has no operating point at this frequency")
    return b_min * 10.0 ** (width_db / 20.0)
