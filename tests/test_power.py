import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rqlsim import netlist_stats
from rqlsim.gates import N_OUTPUTS, PHI0_VS
from rqlsim.power import (
    ScalingScenario,
    activity_power,
    attribute_power,
    clock_budget,
    dynamic_power,
    line_current_rms,
    rsfq_static_equivalent,
    timing_spread_ps,
)
from rqlsim.sim import InputProgram, prbs_stream, shift_register_pairs, simulate_logic
from rqlsim.sim.logic import SimTrace

from test_sim import dag_eval


class TestDynamicPower:
    def test_adder_core_at_measured_clock(self):
        # N=815 junctions of 162 uA at 6.21 GHz
        p = dynamic_power(162e-6, 815, 6.21e9)
        assert abs(p - 560e-9) / 560e-9 < 0.01

    def test_two_million_device_chip(self):
        p = dynamic_power(100e-6, 2e6, 10e9)
        assert abs(p - 1.4e-3) / 1.4e-3 < 0.03

    def test_zero_devices(self):
        assert dynamic_power(162e-6, 0, 10e9) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dynamic_power(-1e-6, 10, 1e9)

    @given(
        st.floats(1e-6, 1e-3),
        st.floats(1, 1e7),
        st.floats(1e6, 1e11),
        st.floats(0.1, 10),
    )
    def test_linear_in_each_argument(self, ic, n, f, k):
        base = dynamic_power(ic, n, f)
        assert dynamic_power(k * ic, n, f) == pytest.approx(k * base, rel=1e-9)
        assert dynamic_power(ic, k * n, f) == pytest.approx(k * base, rel=1e-9)
        assert dynamic_power(ic, n, k * f) == pytest.approx(k * base, rel=1e-9)


def _fully_active_trace(netlist, cycles=10):
    ids, events = [], []
    for g in netlist.gates:
        ids.append(g.gid)
        events.append(N_OUTPUTS[g.kind] * cycles)
    z = np.zeros(cycles, dtype=np.uint64)
    return SimTrace(
        width=netlist.width,
        n_vectors=cycles,
        offset_cycles=2,
        a=z,
        b=z,
        sums=z,
        couts=None,
        gate_events=np.asarray(events),
        gate_ids=np.asarray(ids),
        wave_events=np.full(cycles, sum(events) // cycles),
    )


class TestActivityPower:
    def test_all_zeros_dissipates_nothing(self, adder8):
        trace = simulate_logic(adder8, ([0] * 8, [0] * 8))
        assert activity_power(trace, adder8, 6.21e9) == 0.0

    def test_fully_active_equals_dynamic(self, adder8):
        trace = _fully_active_trace(adder8)
        st_ = netlist_stats(adder8)
        want = dynamic_power(st_.ic_avg_ua * 1e-6, st_.jj_total, 6.21e9)
        assert activity_power(trace, adder8, 6.21e9) == pytest.approx(
            want, rel=1e-12
        )

    def test_never_exceeds_dynamic(self, adder8):
        rng = np.random.default_rng(13)
        pairs = rng.integers(0, 256, (200, 2))
        trace = simulate_logic(adder8, (pairs[:, 0], pairs[:, 1]))
        st_ = netlist_stats(adder8)
        ceiling = dynamic_power(st_.ic_avg_ua * 1e-6, st_.jj_total, 6.21e9)
        assert 0.0 < activity_power(trace, adder8, 6.21e9) < ceiling

    def test_matches_counting_oracle(self, adder8):
        # recount events per wave with the independent DAG walk and apply
        # the per-event energy by hand
        prog = InputProgram.chopped(3, 24, 24)
        a_vals, b_vals = shift_register_pairs(prog.serial_bits)
        trace = simulate_logic(adder8, (a_vals, b_vals))
        f = 6.2e9
        energy = 0.0
        for a, b in zip(a_vals.tolist(), b_vals.tolist()):
            _, _, events = dag_eval(adder8, a, b)
            for gid, n_asserted in events.items():
                g = adder8.gate(gid)
                if g.spec.jj_count == 0 or n_asserted == 0:
                    continue
                e_per_output = (
                    0.33 * g.spec.ic_avg_ua * 1e-6 * PHI0_VS
                    * g.spec.jj_count / N_OUTPUTS[g.kind]
                )
                energy += n_asserted * e_per_output
        want = energy * f / len(a_vals)
        assert activity_power(trace, adder8, f) == pytest.approx(want, rel=1e-12)

    def test_half_duty_chop_halves_power(self, adder8):
        seed = 0xACE1
        chopped = InputProgram.chopped(4, 200, 200, seed=seed)
        active_bits = prbs_stream(800, seed=seed)
        f = 6.2e9
        p_chop = activity_power(
            simulate_logic(adder8, shift_register_pairs(chopped.serial_bits)),
            adder8,
            f,
        )
        p_active = activity_power(
            simulate_logic(adder8, shift_register_pairs(active_bits)),
            adder8,
            f,
        )
        assert p_chop == pytest.approx(0.5 * p_active, rel=0.05)

    def test_empty_trace(self, adder8):
        trace = simulate_logic(adder8, ([], []))
        assert activity_power(trace, adder8, 1e9) == 0.0


class TestAttribution:
    def test_core_share_of_measured_total(self):
        report = attribute_power({"Q": 970e-9, "I": 280e-9}, {"cla": 0.42})
        assert report.p_total_w == pytest.approx(1.25e-6, rel=0.01)
        assert report.per_region_w["cla"] == pytest.approx(525e-9, rel=1e-9)
        assert abs(report.per_region_w["cla"] - 510e-9) / 510e-9 < 0.05

    def test_identity_fraction(self):
        report = attribute_power({"Q": 1e-6}, {"all": 1.0})
        assert report.per_region_w["all"] == pytest.approx(1e-6)

    def test_conserves_total(self):
        per_line = {"I": 3.25e-7, "Q": 8.5e-7}
        report = attribute_power(per_line, {"a": 0.3, "b": 0.42, "c": 0.28})
        assert sum(report.per_region_w.values()) == pytest.approx(
            report.p_total_w, rel=1e-12
        )

    def test_rejects_excess_fractions(self):
        with pytest.raises(ValueError, match="> 1"):
            attribute_power({"Q": 1e-6}, {"a": 0.7, "b": 0.5})
        with pytest.raises(ValueError):
            attribute_power({"Q": 1e-6}, {"a": -0.1})

    def test_report_serializes(self):
        report = attribute_power({"Q": 1e-6}, {"a": 0.5})
        assert json.loads(json.dumps(report.to_dict())) == {
            "p_total_w": 1e-6,
            "per_line_w": {"Q": 1e-6},
            "per_region_w": {"a": 0.5e-6},
            "parameters": {},
        }


class TestClockBudget:
    def test_two_million_device_scenario(self):
        budget = clock_budget(ScalingScenario(2e6, 100e-6, 10e9))
        assert budget.p_dissipated_w == pytest.approx(1.365e-3, rel=0.003)
        assert abs(budget.p_applied_w - 4e-3) / 4e-3 < 0.05
        assert abs(budget.line_current_a - 9e-3) / 9e-3 < 0.02
        assert budget.timing_spread_ps == pytest.approx(4.85, abs=0.01)

    def test_applied_power_inverse_in_margin(self):
        quarter = clock_budget(ScalingScenario(2e6, 100e-6, 10e9, margin_frac=0.25))
        half = clock_budget(ScalingScenario(2e6, 100e-6, 10e9, margin_frac=0.5))
        assert half.p_applied_w == pytest.approx(quarter.p_applied_w / 2, rel=1e-12)

    def test_line_current_scales_as_sqrt_of_power(self):
        for p in (1e-4, 4e-4, 2.5e-3, 9e-3):
            i = line_current_rms(p, 50.0)
            assert i == pytest.approx(math.sqrt(p / 50.0))
        i1 = line_current_rms(1e-3)
        i4 = line_current_rms(4e-3)
        assert i4 == pytest.approx(2 * i1)

    def test_fabricated_chip_line_current(self):
        # two clock lines at about 0.6 mW applied each
        from rqlsim.units import dbm_to_watts

        p_q = dbm_to_watts(-2.0)
        p_i = dbm_to_watts(-2.4)
        per_line = (p_q + p_i) / 2
        i_line = line_current_rms(per_line, 50.0)
        assert abs(i_line - 3.2e-3) / 3.2e-3 < 0.10

    def test_timing_spread_formula(self):
        assert timing_spread_ps(0.10, 8, 3.0) == pytest.approx(4.8485, abs=2e-4)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ScalingScenario(0, 1e-4, 1e9)
        with pytest.raises(ValueError):
            ScalingScenario(1e6, 1e-4, 1e9, margin_frac=1.5)


class TestRsfqEquivalent:
    def test_single_bias_resistor(self):
        assert rsfq_static_equivalent() == pytest.approx(520e-9, rel=1e-12)

    def test_halved_bus_voltage(self):
        assert rsfq_static_equivalent(bus_voltage_v=1.3e-3) == pytest.approx(260e-9)

    def test_cla_total_comparable_to_one_resistor(self):
        p_cla = dynamic_power(162e-6, 815, 6.21e9)
        assert abs(p_cla - rsfq_static_equivalent()) / rsfq_static_equivalent() < 0.10


class TestScenarioFile:
    def test_load_and_budget(self, tmp_path):
        from rqlsim.power import load_scenario

        path = tmp_path / "vlsi.ini"
        path.write_text(
            "[scenario]\n"
            "n_devices = 2e6\n"
            "ic_avg = 100e-6\n"
            "frequency = 10e9\n"
            "margin_frac = 0.10\n"
            "line_impedance = 50\n"
        )
        scenario = load_scenario(path)
        budget = clock_budget(scenario)
        assert abs(budget.line_current_a - 9e-3) / 9e-3 < 0.02

    def test_defaults_fill_in(self, tmp_path):
        from rqlsim.power import load_scenario

        path = tmp_path / "s.ini"
        path.write_text(
            "[scenario]\nn_devices = 815\nic_avg = 162e-6\nfrequency = 6.21e9\n"
        )
        s = load_scenario(path)
        assert s.margin_frac == 0.10
        assert s.line_impedance_ohm == 50.0

    def test_missing_section(self, tmp_path):
        from rqlsim.power import load_scenario

        path = tmp_path / "s.ini"
        path.write_text("[other]\nx = 1\n")
        with pytest.raises(ValueError, match="scenario"):
            load_scenario(path)
