"""The word kernel and its event counters against a gate-by-gate
``eval_gate`` interpreter, on random small DAGs of every primitive."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rqlsim.gates import DEFAULT_GATE_TABLE, N_INPUTS, N_OUTPUTS, GateKind, eval_gate
from rqlsim.netlist import Gate, Netlist, Pin
from rqlsim.sim import simulate_logic

KINDS = [k for k in GateKind if k is not GateKind.SOURCE]
# Around one word (64 vectors) and one 64-word counting block (4096).
BATCHES = [1, 63, 64, 65, 4095, 4097, 8191, 8193]


@st.composite
def dags(draw):
    """A netlist with ports A/B of ``width`` bits and S outputs (Cout
    sometimes) on random pins of a random DAG; an unnamed Source is
    driven as 0.  Gates are listed in random order."""
    width = draw(st.integers(1, 3))
    table = DEFAULT_GATE_TABLE
    names = [f"{p}{i}" for p in "AB" for i in range(width)]
    names += [None] * draw(st.integers(0, 1))
    gates, inputs, pins = [], {}, []
    for gid, name in enumerate(names):
        gates.append(Gate(gid, table[GateKind.SOURCE], (), 0, name or f"src{gid}"))
        if name:
            inputs[name] = gid
        pins.append(Pin(gid, 0))
    for gid in range(len(names), len(names) + draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(KINDS))
        fanin = tuple(draw(st.sampled_from(pins)) for _ in range(N_INPUTS[kind]))
        ptl = 0.0 if kind is GateKind.PTL_RECEIVER else None
        gates.append(Gate(gid, table[kind], fanin, 1, f"g{gid}", ptl_um=ptl))
        pins += [Pin(gid, k) for k in range(N_OUTPUTS[kind])]
    ports = [f"S{i}" for i in range(width)] + ["Cout"] * draw(st.booleans())
    outputs = {port: draw(st.sampled_from(pins)) for port in ports}
    return Netlist(draw(st.permutations(gates)), inputs, outputs, width, 2)


def interpret(netlist):
    """Outputs and per-gate events of every input combination, keyed by
    ``a | b << width``, evaluated one gate at a time with ``eval_gate``."""
    width = netlist.width
    by_name = {gid: name for name, gid in netlist.inputs.items()}
    table = []
    for combo in range(1 << 2 * width):
        values, events = {}, {}
        for gid in netlist.topo_order():
            g = netlist.gate(gid)
            if g.kind is GateKind.SOURCE and gid in by_name:
                name = by_name[gid]
                bit = int(name[1:]) + (width if name[0] == "B" else 0)
                outs = ((combo >> bit) & 1,)
            else:
                outs = eval_gate(g.kind, [values[p] for p in g.fanin])
            values.update({(gid, k): v for k, v in enumerate(outs)})
            events[gid] = sum(outs)
        s = sum(values[netlist.outputs[f"S{i}"]] << i for i in range(width))
        cout = values[netlist.outputs["Cout"]] if "Cout" in netlist.outputs else None
        table.append((s, cout, events))
    return table


@settings(max_examples=60, deadline=None)
@given(netlist=dags(), n=st.sampled_from(BATCHES), seed=st.integers(0, 2**16))
def test_kernel_matches_gate_by_gate_interpreter(netlist, n, seed):
    rng = np.random.default_rng(seed)
    top = 1 << netlist.width
    a = rng.integers(0, top, n, dtype=np.uint64)
    b = rng.integers(0, top, n, dtype=np.uint64)
    trace = simulate_logic(netlist, (a, b))

    table = interpret(netlist)
    combo = (a | b << np.uint64(netlist.width)).astype(np.intp)
    uses = np.bincount(combo, minlength=len(table))
    assert list(trace.sums) == [table[c][0] for c in combo]
    if "Cout" in netlist.outputs:
        assert list(trace.couts) == [table[c][1] for c in combo]
    assert list(trace.wave_events) == [sum(table[c][2].values()) for c in combo]
    want = {
        g.gid: sum(int(k) * row[2][g.gid] for k, row in zip(uses, table))
        for g in netlist.gates
    }
    got = dict(zip(trace.gate_ids.tolist(), trace.gate_events.tolist()))
    assert got == {gid: ev for gid, ev in want.items() if gid in got}
    assert all(ev == 0 for gid, ev in want.items() if gid not in got)  # Sinks
