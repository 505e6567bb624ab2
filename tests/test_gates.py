import math

import pytest
from hypothesis import given, strategies as st

from rqlsim.gates import (
    DEFAULT_GATE_TABLE,
    ClockConfig,
    GateKind,
    GateSpec,
    PhaseSlot,
    eval_gate,
    junction_delay,
    load_gate_table,
)


class TestEvalGate:
    def test_andor_truth_table(self):
        assert eval_gate(GateKind.ANDOR, (1, 0)) == (1, 0)
        assert eval_gate(GateKind.ANDOR, (0, 1)) == (1, 0)
        assert eval_gate(GateKind.ANDOR, (1, 1)) == (1, 1)
        assert eval_gate(GateKind.ANDOR, (0, 0)) == (0, 0)

    def test_anotb_suppressed_by_b(self):
        # a one on B in the same cycle blocks the output
        assert eval_gate(GateKind.ANOTB, (1, 1)) == (0,)
        assert eval_gate(GateKind.ANOTB, (1, 0)) == (1,)
        assert eval_gate(GateKind.ANOTB, (0, 1)) == (0,)
        assert eval_gate(GateKind.ANOTB, (0, 0)) == (0,)

    def test_split_duplicates(self):
        assert eval_gate(GateKind.SPLIT, (1,)) == (1, 1)
        assert eval_gate(GateKind.SPLIT, (0,)) == (0, 0)

    def test_interconnect_passes_through(self):
        for kind in (GateKind.DELAY, GateKind.PTL_DRIVER, GateKind.PTL_RECEIVER):
            assert eval_gate(kind, (1,)) == (1,)
            assert eval_gate(kind, (0,)) == (0,)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="takes 2 inputs"):
            eval_gate(GateKind.ANDOR, (1,))
        with pytest.raises(ValueError):
            eval_gate(GateKind.SPLIT, (1, 0))

    @given(st.sampled_from(list(GateKind)), st.data())
    def test_purity(self, kind, data):
        from rqlsim.gates import N_INPUTS

        bits = tuple(
            data.draw(st.integers(0, 1)) for _ in range(N_INPUTS[kind])
        )
        assert eval_gate(kind, bits) == eval_gate(kind, bits)


class TestJunctionDelay:
    def test_nominal(self):
        assert junction_delay(1.0, 3.0) == 3.0

    def test_overbias_halves(self):
        assert junction_delay(2.0, 3.0) == 1.5

    def test_chain_spread_over_ten_percent_bias(self):
        # 8-junction chain per phase, 3 phases' worth of chains: direct
        # evaluation of the spread across the +/-10% bias window.
        spread = 8 * 3 * (junction_delay(0.9, 1.0) - junction_delay(1.1, 1.0))
        assert spread == pytest.approx(4.8485, abs=2e-4)
        assert abs(spread - 5.0) / 5.0 < 0.10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            junction_delay(0.0)
        with pytest.raises(ValueError):
            junction_delay(-1.0)

    @given(
        st.floats(0.1, 10.0),
        st.floats(1.001, 10.0),
    )
    def test_strictly_decreasing(self, bias, step):
        assert junction_delay(bias) > junction_delay(bias * step)


class TestGateSpec:
    def test_seq_depth_cannot_exceed_jj(self):
        with pytest.raises(ValueError):
            GateSpec(GateKind.ANDOR, 2, 162.0, 3)

    def test_receiver_needs_sequential_junction(self):
        with pytest.raises(ValueError):
            GateSpec(GateKind.PTL_RECEIVER, 2, 162.0, 0)

    def test_sink_has_no_junctions(self):
        with pytest.raises(ValueError):
            GateSpec(GateKind.SINK, 2, 162.0, 0)

    def test_positive_ic_required(self):
        with pytest.raises(ValueError):
            GateSpec(GateKind.ANDOR, 6, 0.0, 4)


class TestPhaseSlot:
    def test_line_polarity_bijection(self):
        seen = set()
        for i in range(4):
            s = PhaseSlot(i)
            seen.add((s.clock_line, s.polarity))
        assert seen == {("I", 1), ("Q", 1), ("I", -1), ("Q", -1)}

    def test_mapping(self):
        assert (PhaseSlot(0).clock_line, PhaseSlot(0).polarity) == ("I", 1)
        assert (PhaseSlot(1).clock_line, PhaseSlot(1).polarity) == ("Q", 1)
        assert (PhaseSlot(2).clock_line, PhaseSlot(2).polarity) == ("I", -1)
        assert (PhaseSlot(3).clock_line, PhaseSlot(3).polarity) == ("Q", -1)

    def test_cycle_arithmetic(self):
        s = PhaseSlot(6)
        assert s.cycle == 1
        assert s.phase_in_cycle == 2
        assert s.clock_line == "I"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PhaseSlot(-1)


class TestClockConfig:
    def test_window(self):
        clk = ClockConfig(10e9)
        assert clk.period_ps == pytest.approx(100.0)
        assert clk.window_ps == pytest.approx(25.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClockConfig(0.0)
        with pytest.raises(ValueError):
            ClockConfig(10e9, bias_rel=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="positive and finite"):
            ClockConfig(value)
        with pytest.raises(ValueError, match="positive and finite"):
            ClockConfig(10e9, bias_rel=value)


def test_gate_table_round_trip(tmp_path):
    # Every kind and every field, none at its default, so that each value
    # must come from the file.
    path = tmp_path / "gates.ini"
    path.write_text(
        "# units: ic_avg in microamps\n"
        "[AndOr]\njj_count = 12\nic_avg = 150.5\nseq_depth = 5\n"
        "[AnotB]\njj_count = 11\nic_avg = 151.5\nseq_depth = 3\n"
        "[Split]\njj_count = 3\nic_avg = 152.5\nseq_depth = 1\n"
        "[Delay]\njj_count = 4\nic_avg = 153.5\nseq_depth = 3\n"
        "[PtlDriver]\njj_count = 5\nic_avg = 154.5\nseq_depth = 2\n"
        "[PtlReceiver]\njj_count = 6\nic_avg = 155.5\nseq_depth = 4\n"
        "[Source]\njj_count = 0\nic_avg = 1.5\nseq_depth = 0\n"
        "[Sink]\njj_count = 0\nic_avg = 2.5\nseq_depth = 0\n"
    )
    assert load_gate_table(path) == {
        GateKind.ANDOR: GateSpec(GateKind.ANDOR, 12, 150.5, 5),
        GateKind.ANOTB: GateSpec(GateKind.ANOTB, 11, 151.5, 3),
        GateKind.SPLIT: GateSpec(GateKind.SPLIT, 3, 152.5, 1),
        GateKind.DELAY: GateSpec(GateKind.DELAY, 4, 153.5, 3),
        GateKind.PTL_DRIVER: GateSpec(GateKind.PTL_DRIVER, 5, 154.5, 2),
        GateKind.PTL_RECEIVER: GateSpec(GateKind.PTL_RECEIVER, 6, 155.5, 4),
        GateKind.SOURCE: GateSpec(GateKind.SOURCE, 0, 1.5, 0),
        GateKind.SINK: GateSpec(GateKind.SINK, 0, 2.5, 0),
    }


def test_gate_table_partial_override(tmp_path):
    path = tmp_path / "gates.ini"
    path.write_text("[AndOr]\njj_count = 6\n")
    table = load_gate_table(path)
    assert table[GateKind.ANDOR].jj_count == 6
    assert table[GateKind.ANDOR].ic_avg_ua == 162.0
    assert table[GateKind.SPLIT] == DEFAULT_GATE_TABLE[GateKind.SPLIT]


def test_gate_table_unknown_kind(tmp_path):
    path = tmp_path / "gates.ini"
    path.write_text("[NotAGate]\njj_count = 1\n")
    with pytest.raises(ValueError, match="unknown gate kind"):
        load_gate_table(path)


def test_gate_table_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_gate_table(tmp_path / "nope.ini")
