import numpy as np
import pytest

from rqlsim.gates import GateKind, eval_gate
from rqlsim.netlist import Gate, Netlist, Pin, missing_ports
from rqlsim.sim import simulate_logic, switching_activity
from rqlsim.sim.encode import encode


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
        trace = simulate_logic(adder8, ([0] * 4, [0] * 4))
        assert all(int(s) == 0 for s in trace.sums)
        assert trace.total_events == 0
        assert list(trace.wave_events) == [0, 0, 0, 0]

    def test_ripple_to_the_top(self, adder8):
        trace = simulate_logic(adder8, ([255], [1]))
        assert int(trace.sums[0]) == 0
        assert int(trace.couts[0]) == 1

    def test_chip_mode_truncates(self, adder8_chip):
        trace = simulate_logic(adder8_chip, ([255], [1]))
        assert int(trace.sums[0]) == 0
        assert trace.couts is None

    def test_matches_direct_dag_evaluation(self, adder8):
        rng = np.random.default_rng(21)
        pairs = rng.integers(0, 256, (64, 2))
        trace = simulate_logic(adder8, (pairs[:, 0], pairs[:, 1]))
        for k, (a, b) in enumerate(pairs):
            s, cout, _ = dag_eval(adder8, int(a), int(b))
            assert int(trace.sums[k]) == s
            assert int(trace.couts[k]) == cout

    def test_event_counts_match_dag_oracle(self, adder8):
        a_vals, b_vals = [1, 170, 255, 0], [0, 85, 255, 0]
        trace = simulate_logic(adder8, (a_vals, b_vals))
        per_gate, total = switching_activity(trace)
        want = {}
        want_total = 0
        for w, (a, b) in enumerate(zip(a_vals, b_vals)):
            _, _, events = dag_eval(adder8, a, b)
            assert trace.wave_events[w] == sum(events.values())
            for gid, n in events.items():
                want[gid] = want.get(gid, 0) + n
                want_total += n
        assert total == want_total
        assert {g: n for g, n in per_gate.items() if n} == {
            g: n for g, n in want.items() if n
        }

    def test_wave_events_across_word_and_unpack_blocks(self, adder8):
        # 64 words are unpacked at a time, so 4096 + 70 vectors cross the
        # 64-vector word boundary and the unpack-block boundary.
        rng = np.random.default_rng(5)
        a_vals = rng.integers(0, 256, 4096 + 70, dtype=np.uint64)
        b_vals = rng.integers(0, 256, 4096 + 70, dtype=np.uint64)
        trace = simulate_logic(adder8, (a_vals, b_vals))
        assert trace.wave_events.sum() == trace.total_events
        for w in (0, 63, 64, 65, 4031, 4095, 4096, 4097, 4159, 4160, 4165):
            _, _, events = dag_eval(adder8, int(a_vals[w]), int(b_vals[w]))
            assert trace.wave_events[w] == sum(events.values()), w

    def test_single_one_events_follow_the_cone(self, adder8):
        # (A=1, B=0): only the fanin cone of S0 and the propagate path
        # carries ones; an independent recount must agree per wave.
        trace = simulate_logic(adder8, ([1], [0]))
        _, _, events = dag_eval(adder8, 1, 0)
        assert trace.total_events == sum(events.values())
        assert trace.total_events > 0

    def test_doubling_vectors_doubles_events(self, adder8):
        a_vals, b_vals = [12, 200, 7], [34, 100, 7]
        once = simulate_logic(adder8, (a_vals, b_vals)).total_events
        twice = simulate_logic(adder8, (a_vals * 2, b_vals * 2)).total_events
        assert twice == 2 * once

    def test_pipeline_offset(self, adder8):
        trace = simulate_logic(adder8, ([3], [4]))
        assert trace.offset_cycles == 2  # 6 phases -> 1.5 cycles, next whole
        assert trace.sums.tolist() == [7]
        assert trace.couts.tolist() == [0]

    def test_width_mismatch_rejected(self, adder8):
        with pytest.raises(ValueError, match="width"):
            simulate_logic(adder8, ([300], [0]))

    def test_stimulus_length_mismatch(self, adder8):
        with pytest.raises(ValueError):
            simulate_logic(adder8, (np.array([1, 2]), np.array([1])))

    def test_tuple_and_list_spellings_agree(self, adder8):
        # Both spell (a, b) = ((1, 2), (3, 4)): sums 1 + 3 and 2 + 4.
        as_tuple = simulate_logic(adder8, ((1, 2), (3, 4)))
        as_list = simulate_logic(adder8, [(1, 2), (3, 4)])
        assert list(as_tuple.sums) == list(as_list.sums) == [4, 6]

    @pytest.mark.parametrize(
        "header, port", [("outputs", "S3"), ("inputs", "A2"), ("inputs", "B7")]
    )
    def test_missing_port_is_named(self, adder8, header, port):
        text = adder8.dumps()
        lines = [
            " ".join(f for f in ln.split() if not f.startswith(f"{port}:"))
            if ln.startswith(f"{header} ") else ln
            for ln in text.splitlines()
        ]
        broken = Netlist.loads("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=port):
            simulate_logic(broken, ([1], [2]))
        assert missing_ports(broken) == [port]

    @pytest.mark.parametrize(
        "kind, extra", [(GateKind.DELAY, 1), (GateKind.SOURCE, 1), (GateKind.ANDOR, -1)]
    )
    def test_wrong_arity_is_named(self, adder8, kind, extra):
        g = next(g for g in adder8.gates if g.kind is kind and g.gid > 0)
        fanin = (g.fanin + (Pin(0, 0),) * extra)[: len(g.fanin) + extra]
        broken = adder8.replace_gates(
            Gate(x.gid, x.spec, fanin, x.phase, x.name, x.region, x.ptl_um)
            if x is g
            else x
            for x in adder8.gates
        )
        arity = f"{kind.value} arity {len(fanin)} != {len(g.fanin)}"
        with pytest.raises(ValueError, match=rf"gate {g.gid} \({g.name}\): {arity}"):
            encode(broken)

    def test_trace_csv(self, adder8, tmp_path):
        trace = simulate_logic(adder8, ([16, 255], [1, 255]))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "cycle,a_hex,b_hex,s_hex,cout,events"
        assert lines[1].startswith("0,10,1,0,0")
        assert lines[3].startswith("2,,,11,0")  # wave 0 emerges at cycle 2
        assert lines[4].startswith("3,,,fe,1")
