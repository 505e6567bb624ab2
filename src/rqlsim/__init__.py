"""rqlsim: gate-level simulation, timing and clock-power analysis for
reciprocal quantum logic adders."""

from .adder import (
    StageLayout,
    assign_phases,
    build_kogge_stone,
    latency,
    legalize_fanout,
)
from .gates import (
    DEFAULT_GATE_TABLE,
    PHI0_VS,
    ClockConfig,
    GateKind,
    GateSpec,
    PhaseSlot,
    eval_gate,
    junction_delay,
    load_gate_table,
)
from .netlist import Gate, Netlist, Pin, netlist_stats, validate

__version__ = "0.1.0"
