"""Dynamic power of RQL circuits and VLSI-scale clock budgeting.

The fully-active dissipation is P = 0.33 * Ic * Phi0 * N * f (the 0.33
prefactor is the experimentally determined fraction of the per-junction flux
transfer that is dissipated).  Activity-weighted power decomposes the same
total into per-switching-event energies so a simulation trace scales it by
actual data activity: zeros dissipate nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .gates import N_OUTPUTS, NOMINAL_JUNCTION_DELAY_PS, PHI0_VS
from .netlist import Netlist
from .sim.logic import SimTrace, switching_activity
from .units import IniFile, located

DYNAMIC_PREFACTOR = 0.33

# Reference gate tolerance to clock-amplitude variation; the applied-power
# rule is anchored here (see clock_budget).
NOMINAL_MARGIN_FRAC = 0.10


def dynamic_power(ic_avg_a: float, n_junctions: float, frequency_hz: float) -> float:
    """Fully-active dynamic dissipation in watts (Ic in amps)."""
    for name, value in (
        ("ic_avg_a", ic_avg_a),
        ("n_junctions", n_junctions),
        ("frequency_hz", frequency_hz),
    ):
        if not 0 <= value < math.inf:
            raise ValueError(
                f"power model: {name} must be finite and >= 0, got {value!r}"
            )
    return DYNAMIC_PREFACTOR * ic_avg_a * PHI0_VS * n_junctions * frequency_hz


def activity_power(trace: SimTrace, netlist: Netlist, frequency_hz: float) -> float:
    """Trace-weighted dissipation in watts.

    Each output pin asserting a one in a cycle fires that gate's junctions
    once, apportioned over its output pins, so a trace in which every pin of
    every gate switches every cycle reproduces ``dynamic_power`` exactly.
    """
    if trace.n_vectors == 0:
        return 0.0
    energy = 0.0
    per_gate, _ = switching_activity(trace)
    for g in netlist.gates:
        if g.spec.jj_count == 0:
            continue
        events = per_gate.get(g.gid, 0)
        if not events:
            continue
        n_out = max(1, N_OUTPUTS[g.kind])
        e_gate = (
            DYNAMIC_PREFACTOR
            * (g.spec.ic_avg_ua * 1e-6)
            * PHI0_VS
            * g.spec.jj_count
            / n_out
        )
        energy += events * e_gate
    return energy * frequency_hz / trace.n_vectors


@dataclass
class PowerReport:
    p_total_w: float
    per_line_w: dict[str, float]
    per_region_w: dict[str, float]
    parameters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "p_total_w": self.p_total_w,
            "per_line_w": self.per_line_w,
            "per_region_w": self.per_region_w,
            "parameters": self.parameters,
        }


def attribute_power(
    per_line_w: dict[str, float],
    region_ic_fractions: dict[str, float],
    parameters: dict | None = None,
) -> PowerReport:
    """Split measured per-clock-line dissipation across subcircuit regions
    in proportion to their critical-current share."""
    total = sum(per_line_w.values())
    frac_sum = 0.0
    for region, frac in region_ic_fractions.items():
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"region {region}: fraction {frac} outside [0, 1]")
        frac_sum += frac
    if frac_sum > 1.0 + 1e-9:
        raise ValueError(f"region fractions sum to {frac_sum:.4f} > 1")
    per_region = {r: f * total for r, f in region_ic_fractions.items()}
    return PowerReport(total, dict(per_line_w), per_region, parameters or {})


@dataclass(frozen=True)
class ScalingScenario:
    """A what-if chip for clock budgeting."""

    n_devices: float
    ic_avg_a: float
    frequency_hz: float
    margin_frac: float = NOMINAL_MARGIN_FRAC  # tolerated clock variation, +/-
    line_impedance_ohm: float = 50.0
    seq_junctions_per_phase: int = 8

    def __post_init__(self):
        for name in ("n_devices", "ic_avg_a", "frequency_hz", "line_impedance_ohm",
                     "seq_junctions_per_phase"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not 0.0 < self.margin_frac < 1.0:
            raise ValueError("margin_frac must be in (0, 1)")


@dataclass
class ClockBudget:
    p_dissipated_w: float
    p_applied_w: float
    line_current_a: float
    timing_spread_ps: float

    def to_dict(self) -> dict:
        return {
            "p_dissipated_w": self.p_dissipated_w,
            "p_applied_w": self.p_applied_w,
            "line_current_a": self.line_current_a,
            "timing_spread_ps": self.timing_spread_ps,
            "note": "applied power is model-based (flux-transfer budget "
            "scaled by nominal/actual tolerance)",
        }


def line_current_rms(p_applied_w: float, impedance_ohm: float = 50.0) -> float:
    return math.sqrt(p_applied_w / impedance_ohm)


def timing_spread_ps(
    margin_frac: float,
    seq_junctions: int = 8,
    d0_ps: float = NOMINAL_JUNCTION_DELAY_PS,
) -> float:
    """Spread of one worst-case sequential chain over the bias window
    [1-m, 1+m] under the d0/bias delay model."""
    lo, hi = 1.0 - margin_frac, 1.0 + margin_frac
    return seq_junctions * d0_ps * (1.0 / lo - 1.0 / hi)


def clock_budget(scenario: ScalingScenario) -> ClockBudget:
    """Applied clock power, line current and timing spread for a scenario.

    The line must carry the full per-junction flux-transfer power
    Ic*Phi0*N*f (of which the 0.33 prefactor is dissipated) when gates
    tolerate the nominal +/-10% amplitude variation; a tighter tolerance
    demands proportionally more applied power.  This rule is a documented
    model, not measurement-derived arithmetic.
    """
    p_diss = dynamic_power(
        scenario.ic_avg_a, scenario.n_devices, scenario.frequency_hz
    )
    p_applied = (
        p_diss / DYNAMIC_PREFACTOR * (NOMINAL_MARGIN_FRAC / scenario.margin_frac)
    )
    return ClockBudget(
        p_dissipated_w=p_diss,
        p_applied_w=p_applied,
        line_current_a=line_current_rms(p_applied, scenario.line_impedance_ohm),
        timing_spread_ps=timing_spread_ps(
            scenario.margin_frac, scenario.seq_junctions_per_phase
        ),
    )


def rsfq_static_equivalent(
    bias_current_a: float = 200e-6, bus_voltage_v: float = 2.6e-3
) -> float:
    """Static dissipation of a single RSFQ bias resistor, for context."""
    return bias_current_a * bus_voltage_v


def load_scenario(path) -> ScalingScenario:
    """Read a [scenario] section from an INI file (same format family as
    the gate table): n_devices, ic_avg (amps), frequency (Hz), optional
    margin_frac, line_impedance, seq_junctions_per_phase."""
    ini = IniFile(path, "scenario file")
    return located(
        f"{path}: [scenario]", ScalingScenario,
        n_devices=ini.get("scenario", "n_devices"),
        ic_avg_a=ini.get("scenario", "ic_avg"),
        frequency_hz=ini.get("scenario", "frequency"),
        margin_frac=ini.get("scenario", "margin_frac", float, NOMINAL_MARGIN_FRAC),
        line_impedance_ohm=ini.get("scenario", "line_impedance", float, 50.0),
        seq_junctions_per_phase=ini.get(
            "scenario", "seq_junctions_per_phase", int, 8
        ),
    )
