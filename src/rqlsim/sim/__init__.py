from .engine import backend_name
from .harness import InputProgram, Lfsr16, prbs_stream, shift_register_pairs
from .logic import SimTrace, simulate_logic, switching_activity
from .timing import (
    DEFAULT_OVERBIAS,
    MarginCurve,
    MarginPoint,
    TimingViolation,
    arrival_times,
    calibrate_overbias,
    margin_sweep,
    min_operating_bias,
    simulate_timed,
)

__all__ = [
    "backend_name",
    "InputProgram",
    "Lfsr16",
    "prbs_stream",
    "shift_register_pairs",
    "SimTrace",
    "simulate_logic",
    "switching_activity",
    "DEFAULT_OVERBIAS",
    "MarginCurve",
    "MarginPoint",
    "TimingViolation",
    "arrival_times",
    "calibrate_overbias",
    "margin_sweep",
    "min_operating_bias",
    "simulate_timed",
]
