"""The levelized kernel, the word-blocked ``simulate_logic`` and the bit
transpose against the row-by-row kernel and the per-bit packing they
replaced, kept here as the reference."""

import tracemalloc

import numpy as np
import pytest

from rqlsim import build_kogge_stone
from rqlsim.gates import DEFAULT_GATE_TABLE, GateKind
from rqlsim.netlist import Gate, Netlist, Pin
from rqlsim.sim import engine, logic, simulate_logic
from rqlsim.sim.encode import OP_AND, OP_ANDNOT, OP_BUF, OP_INPUT, OP_OR, encode
from rqlsim.sim.logic import _bit_rows

BLOCK_VECTORS = logic._BLOCK_WORDS * 64
SIZES = [1, 63, 64, 65, BLOCK_VECTORS - 1, BLOCK_VECTORS + 1, 120_000]


def pack_bits(bits):
    """Bool/0-1 array of length n -> uint64 words, vector i at bit i % 64."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    packed = np.concatenate([packed, np.zeros(-len(packed) % 8, dtype=np.uint8)])
    return packed.view(np.uint64)


def unpack_bits(words, n):
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:n]


def row_loop(program, a, b, n):
    """Reference value matrix: each operand bit packed on its own, then
    every slot evaluated in slot order over the word axis."""
    values = np.zeros((program.n_slots, (n + 63) // 64), dtype=np.uint64)
    for name, slot in program.input_slots.items():
        operand = a if name[0] == "A" else b
        values[slot] = pack_bits((operand >> np.uint64(int(name[1:]))) & np.uint64(1))
    for s in range(program.n_slots):
        op = program.ops[s]
        x, y = values[program.src_a[s]], values[program.src_b[s]]
        if op == OP_OR:
            np.bitwise_or(x, y, out=values[s])
        elif op == OP_AND:
            np.bitwise_and(x, y, out=values[s])
        elif op == OP_ANDNOT:
            np.bitwise_and(x, np.bitwise_not(y), out=values[s])
        elif op == OP_BUF:
            values[s] = x
    if n % 64:
        values[:, -1] &= np.uint64((1 << n % 64) - 1)
    return values


def operands(width, n, seed):
    rng = np.random.default_rng(seed)
    top = (1 << width) - 1
    return tuple(rng.integers(0, top, n, dtype=np.uint64, endpoint=True) for _ in "ab")


@pytest.fixture(scope="module")
def adder64():
    return build_kogge_stone(64)


def without_cout(netlist):
    outputs = {k: v for k, v in netlist.outputs.items() if k != "Cout"}
    return Netlist(netlist.gates, netlist.inputs, outputs, netlist.width,
                   netlist.total_phases)


NETLISTS = {
    "default8": lambda: build_kogge_stone(8),
    "default64": lambda: build_kogge_stone(64),
    "chip-ptl64": lambda: build_kogge_stone(64, chip_mode=True, ptl_length_um=300.0),
    "idle2-64": lambda: build_kogge_stone(64, idle_phases=2),
    "no-cout8": lambda: without_cout(build_kogge_stone(8)),
}


@pytest.mark.parametrize("n", SIZES)
def test_value_matrix_matches_row_loop(adder64, n):
    program = encode(adder64)
    a, b = operands(64, n, n)
    words = (n + 63) // 64
    rows = {"A": _bit_rows(a, words), "B": _bit_rows(b, words)}
    inputs = {name: rows[name[0]][:, int(name[1:])] for name in program.input_slots}
    got = engine.run_program(program, inputs, n)
    want = row_loop(program, a, b, n)
    assert got.shape == want.shape
    assert np.array_equal(got, want)

    trace = simulate_logic(adder64, (a, b))
    sums = np.zeros(n, dtype=np.uint64)
    for i in range(64):
        bits = unpack_bits(want[program.output_slots[f"S{i}"]], n)
        sums |= bits.astype(np.uint64) << np.uint64(i)
    assert np.array_equal(trace.sums, sums)
    assert np.array_equal(trace.sums, a + b)  # wraps mod 2**64
    assert np.array_equal(trace.couts, unpack_bits(want[program.output_slots["Cout"]], n))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", ["default64", "chip-ptl64", "no-cout8"])
def test_blocks_match_row_loop_at_block_edges(name, k):
    """Every output of ``simulate_logic`` at k blocks, one vector short of
    them and one past them, against the whole-matrix reference."""
    netlist = NETLISTS[name]()
    program = encode(netlist)
    for n in (k * BLOCK_VECTORS - 1, k * BLOCK_VECTORS, k * BLOCK_VECTORS + 1):
        a, b = operands(netlist.width, n, n)
        trace = simulate_logic(netlist, (a, b))
        want = row_loop(program, a, b, n)
        sums = np.zeros(n, dtype=np.uint64)
        for i in range(netlist.width):
            bits = unpack_bits(want[program.output_slots[f"S{i}"]], n)
            sums |= bits.astype(np.uint64) << np.uint64(i)
        assert np.array_equal(trace.sums, sums)
        if "Cout" in program.output_slots:
            cout = unpack_bits(want[program.output_slots["Cout"]], n)
            assert np.array_equal(trace.couts, cout)
        else:
            assert trace.couts is None
        pops = np.bitwise_count(want).sum(axis=1, dtype=np.int64)
        assert np.array_equal(trace.gate_events, np.add.reduceat(pops, program.gate_starts))
        waves = np.zeros(n, dtype=np.int64)
        for row in want:
            waves += unpack_bits(row, n)
        assert np.array_equal(trace.wave_events, waves)


def test_memory_grows_only_by_the_per_vector_outputs(adder64):
    """Six blocks more cost ``simulate_logic`` no more than its per-vector
    outputs (sums, couts and wave events, about 17 B a vector, bounded here
    at 40 B) plus a small slack: the slot/word value matrix is held one
    block at a time."""

    def peak(n_blocks):
        a, b = operands(64, n_blocks * BLOCK_VECTORS, n_blocks)
        tracemalloc.start()
        try:
            simulate_logic(adder64, (a, b))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # encode the netlist once, outside the measurement
    extra_vectors = 6 * BLOCK_VECTORS
    assert peak(8) - peak(2) < 40 * extra_vectors + (1 << 20)


@pytest.mark.parametrize("name", ["chip-ptl64", "idle2-64"])
def test_other_netlists_match_row_loop_across_blocks(name):
    netlist = NETLISTS[name]()
    program = encode(netlist)
    n = BLOCK_VECTORS + 65
    a, b = operands(netlist.width, n, 5)
    trace = simulate_logic(netlist, (a, b))
    want = row_loop(program, a, b, n)
    pops = np.bitwise_count(want).sum(axis=1, dtype=np.int64)
    assert np.array_equal(trace.gate_events, np.add.reduceat(pops, program.gate_starts))
    assert np.array_equal(trace.sums, a + b)


def test_inputs_past_bit_63_see_zeros(adder64):
    """A netlist claiming 65 bits: uint64 operands hold no bit 64, so A64
    and B64 are driven with zeros, as the per-bit shift of the reference
    gives, and S64 does not reach the sums."""
    table = DEFAULT_GATE_TABLE
    n = max(g.gid for g in adder64.gates) + 1
    extra = [
        Gate(n, table[GateKind.SOURCE], (), 0, "a64"),
        Gate(n + 1, table[GateKind.SOURCE], (), 0, "b64"),
        Gate(n + 2, table[GateKind.ANDOR], (Pin(n, 0), Pin(n + 1, 0)), 1, "or64"),
    ]
    wide = Netlist(
        [*adder64.gates, *extra],
        {**adder64.inputs, "A64": n, "B64": n + 1},
        {**adder64.outputs, "S64": Pin(n + 2, 0)},
        65,
        adder64.total_phases,
    )
    a, b = operands(64, 1000, 3)
    trace = simulate_logic(wide, (a, b))
    program = encode(wide)
    pops = np.bitwise_count(row_loop(program, a, b, 1000)).sum(axis=1, dtype=np.int64)
    assert np.array_equal(trace.gate_events, np.add.reduceat(pops, program.gate_starts))
    assert np.array_equal(trace.sums, a + b)


@pytest.mark.parametrize("name", list(NETLISTS))
def test_schedule_is_levelized(name):
    program = encode(NETLISTS[name]())
    ops, src_a, src_b = program.ops, program.src_a, program.src_b
    level = np.zeros(program.n_slots, dtype=np.int64)
    for s in range(program.n_slots):  # slots are in topological order
        if ops[s] != OP_INPUT:
            srcs = [src_a[s]] if ops[s] == OP_BUF else [src_a[s], src_b[s]]
            level[s] = 1 + max(level[k] for k in srcs)

    done = []
    last = 0
    for op, dst, a, b in program.groups:
        assert len(dst) and (ops[dst] == op).all()
        assert np.array_equal(a, src_a[dst])
        srcs = a if op == OP_BUF else np.concatenate([a, b])
        if op != OP_BUF:
            assert np.array_equal(b, src_b[dst])
        (lv,) = set(level[dst].tolist())
        assert lv >= last and (level[srcs] < lv).all()
        last = lv
        done.append(dst)
    done = np.sort(np.concatenate(done))
    assert np.array_equal(done, np.flatnonzero(ops != OP_INPUT))  # each once


@pytest.mark.parametrize("width", range(1, 65))
def test_transpose_round_trip(width):
    for n in (1, 63, 65, 200):
        vals = operands(width, n, width)[0]
        words = (n + 63) // 64
        rows = _bit_rows(vals, words)
        for i in range(64):
            want = pack_bits((vals >> np.uint64(i)) & np.uint64(1)) if i < width else 0
            assert np.array_equal(rows[:, i], np.broadcast_to(want, words))
        engine.transpose64(rows)
        flat = rows.reshape(-1)
        assert np.array_equal(flat[:n], vals)
        assert not flat[n:].any()
