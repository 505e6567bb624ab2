import numpy as np
import pytest

from rqlsim import (
    Netlist,
    Pin,
    StageLayout,
    assign_phases,
    build_kogge_stone,
    latency,
    legalize_fanout,
    netlist_stats,
    validate,
)
from rqlsim.gates import DEFAULT_GATE_TABLE, GateKind
from rqlsim.netlist import Gate
from rqlsim.sim import simulate_logic


def addition_oracle(width, a, b):
    mask = (1 << width) - 1
    return (a + b) & mask, ((a + b) >> width) & 1


def random_pairs(width, n, seed):
    rng = np.random.default_rng(seed)
    hi = 1 << width
    a = rng.integers(0, hi, n, dtype=np.uint64)
    b = rng.integers(0, hi, n, dtype=np.uint64)
    return a, b


def assert_adds(netlist, a_vals, b_vals):
    trace = simulate_logic(netlist, (a_vals, b_vals))
    mask = (1 << netlist.width) - 1
    expect_s = (a_vals.astype(object) + b_vals.astype(object)) & mask
    got = [int(s) for s in trace.sums]
    assert got == list(expect_s)
    if trace.couts is not None:
        expect_c = (a_vals.astype(object) + b_vals.astype(object)) >> netlist.width
        assert [int(c) for c in trace.couts] == list(expect_c)


class TestLayout:
    @pytest.mark.parametrize("width,stages", [(2, 3), (4, 4), (8, 5), (16, 6),
                                              (32, 7), (64, 8)])
    def test_logic_stage_count(self, width, stages):
        assert StageLayout(width).n_logic_stages == stages

    def test_default_eight_bit_layout(self):
        layout = StageLayout(8)
        assert layout.total_phases == 6
        assert layout.idle_phase_indices == (3,)
        # stages map to phases with the idle before the last carry column
        assert [layout.phase_of_stage(s) for s in range(5)] == [0, 1, 2, 4, 5]

    def test_no_idle_layout(self):
        layout = StageLayout(8, idle_phases=0)
        assert layout.total_phases == 5
        assert layout.idle_phase_indices == ()

    def test_bad_widths_rejected(self):
        for w in (3, 7, 12, 128, 0):
            with pytest.raises(ValueError):
                StageLayout(w)

    def test_bad_idle_position(self):
        with pytest.raises(ValueError):
            StageLayout(8, idle_phases=1, idle_position=5)


class TestLatency:
    def test_six_phases_at_ten_gigahertz(self, adder8):
        rep = latency(adder8, 10e9)
        assert rep.phases == 6
        assert rep.cycles == 1.5
        assert rep.latency_ps == pytest.approx(150.0)

    def test_five_phases(self):
        rep = latency(StageLayout(8, idle_phases=0), 10e9)
        assert rep.cycles == 1.25
        assert rep.latency_ps == pytest.approx(125.0)

    def test_sixty_four_bit_projection(self):
        rep = latency(StageLayout(64, idle_phases=0), 20e9)
        assert rep.phases == 8
        assert rep.cycles == 2.0
        assert rep.latency_ps == pytest.approx(100.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            latency(0, 10e9)
        with pytest.raises(ValueError):
            latency(6, 0.0)


class TestBuild:
    def test_junction_calibration(self, adder8):
        st = netlist_stats(adder8)
        assert st.jj_total == 815
        assert st.ic_avg_ua == pytest.approx(162.0)

    def test_phase_plan(self, adder8):
        # A/OR=0, carry columns 1 and 2, idle=3, last column=4, sum=5
        by_phase = {}
        for g in adder8.gates:
            by_phase.setdefault(g.phase, set()).add(g.kind)
        assert by_phase[3] <= {GateKind.DELAY}
        assert GateKind.ANDOR in by_phase[0]
        assert GateKind.ANOTB in by_phase[1]  # partial sums
        assert GateKind.ANDOR in by_phase[4]
        assert GateKind.ANOTB in by_phase[5]  # final xor column

    def test_exhaustive_eight_bit(self, adder8):
        n = 256
        a = np.repeat(np.arange(n, dtype=np.uint64), n)
        b = np.tile(np.arange(n, dtype=np.uint64), n)
        assert_adds(adder8, a, b)

    def test_two_bit_minimal(self):
        nl = build_kogge_stone(2)
        assert StageLayout(2).n_logic_stages == 3
        a = np.array([0, 1, 2, 3, 3], dtype=np.uint64)
        b = np.array([0, 3, 2, 1, 3], dtype=np.uint64)
        assert_adds(nl, a, b)

    @pytest.mark.parametrize("width", [4, 16, 32, 64])
    def test_wider_adders(self, width):
        nl = build_kogge_stone(width, idle_phases=0 if width > 16 else 1)
        a, b = random_pairs(width, 2000, seed=width)
        assert_adds(nl, a, b)
        assert validate(nl) == []

    def test_chip_mode_has_no_carry_out(self, adder8_chip):
        assert "Cout" not in adder8_chip.outputs
        assert set(adder8_chip.outputs) == {f"S{i}" for i in range(8)}
        a, b = random_pairs(8, 500, seed=3)
        assert_adds(adder8_chip, a, b)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            build_kogge_stone(12)

    def test_all_gates_reach_an_output(self, adder8):
        # pruning keeps only logic transitively connected to an output
        consumers = {}
        for g in adder8.gates:
            for pin in g.fanin:
                consumers.setdefault(pin.gid, set()).add(g.gid)
        sinks = {g.gid for g in adder8.gates if g.kind is GateKind.SINK}
        live = set(sinks)
        frontier = list(sinks)
        fanin_of = {g.gid: [p.gid for p in g.fanin] for g in adder8.gates}
        while frontier:
            gid = frontier.pop()
            for src in fanin_of[gid]:
                if src not in live:
                    live.add(src)
                    frontier.append(src)
        assert live == {g.gid for g in adder8.gates}

    def test_multi_input_gates_see_aligned_phases(self, adder8):
        # both cross-phase fanins of a logic gate come from the same phase
        for g in adder8.gates:
            if len(g.fanin) < 2:
                continue
            cross = {
                adder8.gate(p.gid).phase
                for p in g.fanin
                if adder8.gate(p.gid).phase != g.phase
            }
            assert len(cross) <= 1

    def test_deterministic_generation(self):
        assert build_kogge_stone(8).dumps() == build_kogge_stone(8).dumps()

    def test_ptl_substitution(self):
        nl = build_kogge_stone(8, chip_mode=True, ptl_length_um=900.0)
        drivers = [g for g in nl.gates if g.kind is GateKind.PTL_DRIVER]
        receivers = [g for g in nl.gates if g.kind is GateKind.PTL_RECEIVER]
        assert len(drivers) == len(receivers) == 3
        assert all(g.phase in nl.idle_phases for g in drivers + receivers)
        a, b = random_pairs(8, 400, seed=9)
        assert_adds(nl, a, b)


class TestLegalizeFanout:
    def _fan_netlist(self, n_loads):
        gates = [
            Gate(0, DEFAULT_GATE_TABLE[GateKind.SOURCE], (), 0, "A0", "io")
        ]
        for k in range(n_loads):
            gates.append(
                Gate(
                    1 + k,
                    DEFAULT_GATE_TABLE[GateKind.DELAY],
                    (Pin(0, 0),),
                    1,
                    f"d{k}",
                )
            )
        return Netlist(gates, {"A0": 0}, {}, 1, 2)

    def test_four_receivers_unchanged(self):
        nl = self._fan_netlist(4)
        assert legalize_fanout(nl, 4) is nl

    def test_five_receivers_one_split(self):
        nl = legalize_fanout(self._fan_netlist(5), 4)
        splits = [g for g in nl.gates if g.kind is GateKind.SPLIT]
        assert len(splits) == 1
        assert validate(nl, max_fanout=4) == []
        # depth <= 2: every consumer hangs off the pin or one split
        depth = {}
        for g in nl.gates:
            if g.kind is GateKind.DELAY:
                drv = nl.gate(g.fanin[0].gid)
                depth[g.gid] = 1 if drv.kind is GateKind.SOURCE else 2
        assert set(depth.values()) <= {1, 2}

    def test_observed_max_fanout_is_four(self, adder8):
        worst = max(len(c) for c in adder8.fanout_map().values())
        assert worst == 4

    def test_tighter_limit_preserves_function(self, adder8):
        nl2 = legalize_fanout(adder8, 2)
        assert validate(nl2, max_fanout=2) == []
        splits = [g for g in nl2.gates if g.kind is GateKind.SPLIT]
        assert splits, "limit 2 must force splitter trees"
        a, b = random_pairs(8, 600, seed=11)
        assert_adds(nl2, a, b)

    def test_bad_limit(self, adder8):
        with pytest.raises(ValueError):
            legalize_fanout(adder8, 1)


class TestAssignPhases:
    def test_relayout_to_five_phases(self, adder8):
        nl5 = assign_phases(adder8, StageLayout(8, idle_phases=0))
        assert nl5.total_phases == 5
        assert validate(nl5) == []
        assert latency(nl5, 10e9).latency_ps == pytest.approx(125.0)
        a, b = random_pairs(8, 500, seed=5)
        assert_adds(nl5, a, b)

    def test_relayout_moves_idle(self, adder8):
        nl = assign_phases(adder8, StageLayout(8, idle_phases=1, idle_position=2))
        assert nl.idle_phases == (2,)
        assert validate(nl) == []
        a, b = random_pairs(8, 300, seed=6)
        assert_adds(nl, a, b)

    def test_width_mismatch(self, adder8):
        with pytest.raises(ValueError):
            assign_phases(adder8, StageLayout(16))

    def test_gate_names_do_not_mark_padding(self, adder8):
        # a logic gate named like a padding cell must survive the re-layout
        anotb = next(g for g in adder8.gates if g.kind is GateKind.ANOTB)
        renamed = adder8.replace_gates(
            Gate(g.gid, g.spec, g.fanin, g.phase, "pad_x", g.region, g.ptl_um)
            if g is anotb
            else g
            for g in adder8.gates
        )
        nl5 = assign_phases(renamed, StageLayout(8, idle_phases=0))
        assert validate(nl5) == []
        values = np.arange(256, dtype=np.uint64)
        assert_adds(nl5, np.repeat(values, 256), np.tile(values, 256))
