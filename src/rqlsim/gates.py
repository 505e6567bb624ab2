"""RQL gate primitives: kinds, cycle-level semantics and device parameters.

A logical one is a reciprocal SFQ pulse pair riding on the AC clock; at the
cycle level the two combinational primitives reduce to plain truth tables
(AndOr emits OR and AND, AnotB emits A AND NOT B).  Everything timing-related
is driven by the sequential-junction delay model in ``junction_delay``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .units import IniFile, located

# Magnetic flux quantum h/2e in V*s (2.068 mV*ps).
PHI0_VS = 2.068e-15

# Sequential-junction delay at nominal clock amplitude, picoseconds.
NOMINAL_JUNCTION_DELAY_PS = 3.0


class GateKind(str, Enum):
    ANDOR = "AndOr"
    ANOTB = "AnotB"
    SPLIT = "Split"
    DELAY = "Delay"
    PTL_DRIVER = "PtlDriver"
    PTL_RECEIVER = "PtlReceiver"
    SOURCE = "Source"
    SINK = "Sink"


# Pin counts per kind.  AndOr output pin 0 is the OR result, pin 1 the AND
# result; Split duplicates its input on both output pins.
N_INPUTS = {
    GateKind.ANDOR: 2,
    GateKind.ANOTB: 2,
    GateKind.SPLIT: 1,
    GateKind.DELAY: 1,
    GateKind.PTL_DRIVER: 1,
    GateKind.PTL_RECEIVER: 1,
    GateKind.SOURCE: 0,
    GateKind.SINK: 1,
}

N_OUTPUTS = {
    GateKind.ANDOR: 2,
    GateKind.ANOTB: 1,
    GateKind.SPLIT: 2,
    GateKind.DELAY: 1,
    GateKind.PTL_DRIVER: 1,
    GateKind.PTL_RECEIVER: 1,
    GateKind.SOURCE: 1,
    GateKind.SINK: 0,
}


@dataclass(frozen=True)
class GateSpec:
    """Per-kind device budget: junction count, average critical current
    (microamps) and the number of sequential junctions on the gate's
    internal critical path."""

    kind: GateKind
    jj_count: int
    ic_avg_ua: float
    seq_depth: int

    def __post_init__(self):
        if self.jj_count < 0 or self.seq_depth < 0:
            raise ValueError("junction counts must be non-negative")
        if self.jj_count < self.seq_depth:
            raise ValueError(
                f"{self.kind.value}: seq_depth {self.seq_depth} exceeds "
                f"jj_count {self.jj_count}"
            )
        if self.jj_count > 0 and not 0 < self.ic_avg_ua < math.inf:
            raise ValueError(
                f"{self.kind.value}: ic_avg must be positive and finite, "
                f"got {self.ic_avg_ua!r}"
            )
        if self.kind is GateKind.PTL_RECEIVER and self.seq_depth < 1:
            raise ValueError("PtlReceiver needs at least one sequential junction")
        if self.kind in (GateKind.SOURCE, GateKind.SINK) and self.jj_count != 0:
            raise ValueError("Source/Sink carry no junctions")


# Defaults are calibrated so that the generated 8-bit adder core (with its
# carry-out, one idle phase, fanout limit 4) totals 815 junctions of average
# critical current 162 uA; see tests/test_adder.py.  Split/Delay are the
# two-junction active interconnect.  seq_depth of 4 for the logic gates puts
# a two-level gate cascade at 8 sequential junctions per phase.
DEFAULT_GATE_TABLE: dict[GateKind, GateSpec] = {
    GateKind.ANDOR: GateSpec(GateKind.ANDOR, 10, 162.0, 4),
    GateKind.ANOTB: GateSpec(GateKind.ANOTB, 9, 162.0, 4),
    GateKind.SPLIT: GateSpec(GateKind.SPLIT, 2, 162.0, 2),
    GateKind.DELAY: GateSpec(GateKind.DELAY, 2, 162.0, 2),
    GateKind.PTL_DRIVER: GateSpec(GateKind.PTL_DRIVER, 2, 162.0, 1),
    GateKind.PTL_RECEIVER: GateSpec(GateKind.PTL_RECEIVER, 2, 162.0, 2),
    GateKind.SOURCE: GateSpec(GateKind.SOURCE, 0, 0.0, 0),
    GateKind.SINK: GateSpec(GateKind.SINK, 0, 0.0, 0),
}


def load_gate_table(path) -> dict[GateKind, GateSpec]:
    """Read a gate parameter table from an INI file.

    One section per gate kind, keys ``jj_count``, ``ic_avg`` (microamps) and
    ``seq_depth``; kinds not listed keep their defaults.
    """
    ini = IniFile(path, "gate table")
    table = dict(DEFAULT_GATE_TABLE)
    for section in ini.sections:
        try:
            kind = GateKind(section)
        except ValueError:
            raise ValueError(f"unknown gate kind {section!r} in {path}") from None
        base = table[kind]
        table[kind] = located(
            f"{path}: [{section}]", GateSpec, kind,
            ini.get(section, "jj_count", int, base.jj_count),
            ini.get(section, "ic_avg", float, base.ic_avg_ua),
            ini.get(section, "seq_depth", int, base.seq_depth),
        )
    return table


@dataclass(frozen=True)
class ClockConfig:
    """Four-phase AC clock settings.

    ``bias_rel`` is the clock current amplitude relative to nominal.
    """

    frequency_hz: float
    bias_rel: float = 1.0

    def __post_init__(self):
        if not (self.frequency_hz > 0 and math.isfinite(self.frequency_hz)):
            raise ValueError(
                f"clock frequency must be positive and finite, got {self.frequency_hz}"
            )
        if not (self.bias_rel > 0 and math.isfinite(self.bias_rel)):
            raise ValueError(
                f"clock bias must be positive and finite, got {self.bias_rel}"
            )

    @property
    def period_ps(self) -> float:
        return 1e12 / self.frequency_hz

    @property
    def window_ps(self) -> float:
        """Pulse acceptance window of one phase, picoseconds."""
        return self.period_ps * 0.25


@dataclass(frozen=True)
class PhaseSlot:
    """Position of a gate in the four-phase clocking scheme.

    Phases 0 and 2 within a cycle ride the in-phase (I) line with opposite
    polarity; phases 1 and 3 ride the quadrature (Q) line.
    """

    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("phase index must be >= 0")

    @property
    def cycle(self) -> int:
        return self.index // 4

    @property
    def phase_in_cycle(self) -> int:
        return self.index % 4

    @property
    def clock_line(self) -> str:
        return "I" if self.phase_in_cycle % 2 == 0 else "Q"

    @property
    def polarity(self) -> int:
        return +1 if self.phase_in_cycle < 2 else -1


def eval_gate(kind: GateKind, inputs) -> tuple[int, ...]:
    """Cycle-level truth table of one gate.

    Returns one bit per output pin.  AndOr returns (or, and); within a single
    clock phase the pulse-ordering behaviour of the physical gate is exactly
    OR/AND, and AnotB suppresses its output when both inputs carry a one in
    the same cycle.
    """
    n_in = N_INPUTS[kind]
    if len(inputs) != n_in:
        raise ValueError(
            f"{kind.value} takes {n_in} inputs, got {len(inputs)}"
        )
    bits = tuple(1 if b else 0 for b in inputs)
    if kind is GateKind.ANDOR:
        return (bits[0] | bits[1], bits[0] & bits[1])
    if kind is GateKind.ANOTB:
        return (bits[0] & (1 - bits[1]),)
    if kind is GateKind.SPLIT:
        return (bits[0], bits[0])
    if kind in (GateKind.DELAY, GateKind.PTL_DRIVER, GateKind.PTL_RECEIVER):
        return (bits[0],)
    if kind is GateKind.SOURCE:
        return (0,)
    return ()  # Sink


def junction_delay(bias_rel: float, d0_ps: float = NOMINAL_JUNCTION_DELAY_PS) -> float:
    """Delay of one sequentially wired junction at the given relative clock
    amplitude: d0 / bias_rel, picoseconds."""
    if bias_rel <= 0:
        raise ValueError("bias_rel must be positive")
    return d0_ps / bias_rel
