"""``SimTrace.to_csv`` against the per-row formatter it replaced, byte for
byte."""

import numpy as np
import pytest

from rqlsim import build_kogge_stone
from rqlsim.sim import logic, simulate_logic
from rqlsim.sim.logic import SimTrace


def output_at_cycle(trace: SimTrace, cycle: int) -> tuple[int, int | None]:
    """(sum, cout) visible at a given cycle; zeros while the pipe fills."""
    wave = cycle - trace.offset_cycles
    if wave < 0 or wave >= trace.n_vectors:
        return 0, (0 if trace.couts is not None else None)
    cout = int(trace.couts[wave]) if trace.couts is not None else None
    return int(trace.sums[wave]), cout


def reference_csv(trace: SimTrace) -> bytes:
    """One formatted row per cycle, written the way ``to_csv`` first did."""
    n_cycles = trace.n_vectors + trace.offset_cycles
    cols = "cycle,a_hex,b_hex,s_hex"
    if trace.couts is not None:
        cols += ",cout"
    rows = [cols + ",events\n"]
    for t in range(n_cycles):
        a = f"{int(trace.a[t]):x}" if t < trace.n_vectors else ""
        b = f"{int(trace.b[t]):x}" if t < trace.n_vectors else ""
        s, cout = output_at_cycle(trace, t)
        ev = str(int(trace.wave_events[t])) if t < trace.n_vectors else ""
        row = f"{t},{a},{b},{s:x}"
        if trace.couts is not None:
            row += f",{cout}"
        rows.append(row + f",{ev}\n")
    return "".join(rows).encode()


def written(trace, tmp_path) -> bytes:
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    return path.read_bytes()


def made_trace(width, n, operands, with_cout, offset=2, seed=0):
    """A trace with the shapes and dtypes ``simulate_logic`` returns."""
    rng = np.random.default_rng(seed)
    top = (1 << width) - 1
    if operands == "zeros":
        a = b = np.zeros(n, dtype=np.uint64)
    elif operands == "ones":
        a = b = np.full(n, top, dtype=np.uint64)
    else:
        a = rng.integers(0, top, n, dtype=np.uint64, endpoint=True)
        b = rng.integers(0, top, n, dtype=np.uint64, endpoint=True)
    total = [int(x) + int(y) for x, y in zip(a, b)]
    sums = np.array([t & top for t in total], dtype=np.uint64)
    couts = np.array([t >> width for t in total], dtype=np.uint8)
    events = {
        "random": rng.integers(0, 3000, n),
        "zeros": np.zeros(n, dtype=np.int64),
        "ones": np.full(n, 999_999),
    }[operands]
    return SimTrace(
        width=width,
        n_vectors=n,
        offset_cycles=offset,
        a=a,
        b=b,
        sums=sums,
        couts=couts if with_cout else None,
        gate_events=np.zeros(1, dtype=np.int64),
        gate_ids=np.zeros(1, dtype=np.int64),
        wave_events=events.astype(np.int64),
    )


@pytest.mark.parametrize("with_cout", [True, False], ids=["cout", "no-cout"])
@pytest.mark.parametrize("width", [1, 4, 8, 64])
def test_small_traces(tmp_path, width, with_cout):
    for n in (0, 1, 7):
        for operands in ("random", "zeros", "ones"):
            trace = made_trace(width, n, operands, with_cout)
            assert written(trace, tmp_path) == reference_csv(trace), (n, operands)


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_rows_around_the_writer_block(tmp_path, delta):
    offset = 2
    n = logic._CSV_ROWS + delta - offset
    trace = made_trace(64, n, "random", True, offset=offset, seed=delta + 1)
    assert written(trace, tmp_path) == reference_csv(trace)


@pytest.mark.parametrize("with_cout", [True, False], ids=["cout", "no-cout"])
@pytest.mark.parametrize("rows", [7, 8, 9, 15, 16, 17])
def test_rows_around_a_small_block(tmp_path, monkeypatch, rows, with_cout):
    # Drain rows and fill rows fall on both sides of each block edge.
    monkeypatch.setattr(logic, "_CSV_ROWS", 8)
    trace = made_trace(8, rows - 3, "random", with_cout, offset=3, seed=rows)
    assert written(trace, tmp_path) == reference_csv(trace)


@pytest.mark.parametrize("chip_mode", [False, True], ids=["cout", "no-cout"])
@pytest.mark.parametrize("width", [4, 8, 64])
def test_simulated_traces(tmp_path, width, chip_mode):
    netlist = build_kogge_stone(width, chip_mode=chip_mode)
    rng = np.random.default_rng(width)
    top = (1 << width) - 1
    edge = np.array([[0, top, top], [0, top, 1]], dtype=np.uint64)
    a, b = np.concatenate([edge, rng.integers(0, top, (2, 70), dtype=np.uint64)], axis=1)
    trace = simulate_logic(netlist, (a, b))
    assert (trace.couts is None) == chip_mode
    assert written(trace, tmp_path) == reference_csv(trace)
