import numpy as np
import pytest

from rqlsim.gates import GateKind, eval_gate
from rqlsim.sim import simulate_logic, switching_activity


def dag_eval(netlist, a, b):
    """Independent per-vector evaluation: walk the DAG with eval_gate.

    Returns (values per pin, per-gate asserted-output counts).
    """
    values = {}
    events = {}
    for gid in netlist.topo_order():
        g = netlist.gate(gid)
        if g.kind is GateKind.SOURCE:
            name = next(n for n, i in netlist.inputs.items() if i == gid)
            bit = (a >> int(name[1:]) if name[0] == "A" else b >> int(name[1:])) & 1
            outs = (bit,)
        else:
            ins = [values[p] for p in g.fanin]
            outs = eval_gate(g.kind, ins)
        for k, v in enumerate(outs):
            values[(gid, k)] = v
        events[gid] = sum(outs)
    s = 0
    for i in range(netlist.width):
        s |= values[netlist.outputs[f"S{i}"]] << i
    cout = values[netlist.outputs["Cout"]] if "Cout" in netlist.outputs else None
    return s, cout, events


class TestSimulateLogic:
    def test_zeros_propagate_nothing(self, adder8):
        trace = simulate_logic(adder8, [(0, 0)] * 4)
        assert all(int(s) == 0 for s in trace.sums)
        assert trace.total_events == 0
        assert list(trace.wave_events) == [0, 0, 0, 0]

    def test_ripple_to_the_top(self, adder8):
        trace = simulate_logic(adder8, [(255, 1)])
        assert int(trace.sums[0]) == 0
        assert int(trace.couts[0]) == 1

    def test_chip_mode_truncates(self, adder8_chip):
        trace = simulate_logic(adder8_chip, [(255, 1)])
        assert int(trace.sums[0]) == 0
        assert trace.couts is None

    def test_matches_direct_dag_evaluation(self, adder8):
        rng = np.random.default_rng(21)
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 256, (64, 2))]
        trace = simulate_logic(adder8, pairs)
        for k, (a, b) in enumerate(pairs):
            s, cout, _ = dag_eval(adder8, a, b)
            assert int(trace.sums[k]) == s
            assert int(trace.couts[k]) == cout

    def test_event_counts_match_dag_oracle(self, adder8):
        pairs = [(1, 0), (170, 85), (255, 255)]
        trace = simulate_logic(adder8, pairs)
        per_gate, total = switching_activity(trace)
        want = {}
        want_total = 0
        for a, b in pairs:
            _, _, events = dag_eval(adder8, a, b)
            for gid, n in events.items():
                want[gid] = want.get(gid, 0) + n
                want_total += n
        assert total == want_total
        assert {g: n for g, n in per_gate.items() if n} == {
            g: n for g, n in want.items() if n
        }

    def test_single_one_events_follow_the_cone(self, adder8):
        # (A=1, B=0): only the fanin cone of S0 and the propagate path
        # carries ones; an independent recount must agree per wave.
        trace = simulate_logic(adder8, [(1, 0)])
        _, _, events = dag_eval(adder8, 1, 0)
        assert trace.total_events == sum(events.values())
        assert trace.total_events > 0

    def test_doubling_vectors_doubles_events(self, adder8):
        pairs = [(12, 34), (200, 100), (7, 7)]
        once = simulate_logic(adder8, pairs).total_events
        twice = simulate_logic(adder8, pairs * 2).total_events
        assert twice == 2 * once

    def test_pipeline_offset(self, adder8):
        trace = simulate_logic(adder8, [(3, 4)])
        assert trace.offset_cycles == 2  # 6 phases -> 1.5 cycles, next whole
        assert trace.output_at_cycle(0) == (0, 0)
        assert trace.output_at_cycle(1) == (0, 0)
        assert trace.output_at_cycle(2) == (7, 0)

    def test_width_mismatch_rejected(self, adder8):
        with pytest.raises(ValueError, match="width"):
            simulate_logic(adder8, [(300, 0)])

    def test_stimulus_length_mismatch(self, adder8):
        with pytest.raises(ValueError):
            simulate_logic(adder8, (np.array([1, 2]), np.array([1])))

    def test_trace_csv(self, adder8, tmp_path):
        trace = simulate_logic(adder8, [(16, 1), (255, 255)])
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "cycle,a_hex,b_hex,s_hex,cout,events"
        assert lines[1].startswith("0,10,1,0,0")
        assert lines[3].startswith("2,,,11,0")  # wave 0 emerges at cycle 2
        assert lines[4].startswith("3,,,fe,1")

    def test_event_matrix_consistency(self, adder8):
        pairs = [(1, 0), (170, 85), (255, 255), (0, 0)]
        trace = simulate_logic(adder8, pairs, want_event_matrix=True)
        assert trace.event_matrix.shape == (len(trace.gate_ids), len(pairs))
        assert np.array_equal(trace.event_matrix.sum(axis=1), trace.gate_events)
        assert np.array_equal(
            trace.event_matrix.sum(axis=0, dtype=np.int64), trace.wave_events
        )
        gid_row = {int(g): k for k, g in enumerate(trace.gate_ids)}
        for w, (a, b) in enumerate(pairs):
            _, _, events = dag_eval(adder8, a, b)
            for gid, n in events.items():
                if gid not in gid_row:  # sinks have no output pins
                    assert n == 0
                    continue
                assert trace.event_matrix[gid_row[gid], w] == n
