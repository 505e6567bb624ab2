import numpy as np
import pytest
from hypothesis import given, strategies as st

from rqlsim.sim import InputProgram, Lfsr16, prbs_stream, shift_register_pairs


def as_pairs(operands):
    """(a, b) operand arrays -> list of (A, B) integer pairs."""
    a, b = operands
    return list(zip(a.tolist(), b.tolist()))


def window_oracle(serial_bits, width=8):
    """Sliding-window model of the tap scheme, independent of the
    shift-register implementation."""
    stages = 2 * width
    received = []
    pairs = []
    for bit in serial_bits:
        received.append(bit & 1)
        window = [0] * stages
        for k in range(min(stages, len(received))):
            window[k] = received[-1 - k]
        a = sum(window[i] << i for i in range(width))
        b = sum(window[stages - 1 - i] << i for i in range(width))
        pairs.append((a, b))
    return pairs


class TestShiftRegister:
    def test_all_zero_stream(self):
        pairs = as_pairs(shift_register_pairs([0] * 16))
        assert pairs == [(0, 0)] * 16

    def test_single_one_visits_every_tap(self):
        bits = [1] + [0] * 15
        pairs = as_pairs(shift_register_pairs(bits))
        seen_a, seen_b = set(), set()
        for a, b in pairs:
            assert bin(a).count("1") + bin(b).count("1") == 1
            if a:
                seen_a.add(a)
            else:
                seen_b.add(b)
        assert seen_a == {1 << i for i in range(8)}
        assert seen_b == {1 << i for i in range(8)}

    def test_matches_window_oracle(self):
        bits = prbs_stream(16)
        pairs = as_pairs(shift_register_pairs(bits))
        assert pairs == window_oracle(bits)
        assert len(set(pairs)) == 16  # distinct cyclic permutations

    def test_periodic_stream_repeats(self):
        bits = prbs_stream(16) * 3
        pairs = as_pairs(shift_register_pairs(bits))
        assert pairs[16:32] == pairs[32:48]

    def test_wide_register_matches_oracle(self):
        bits = prbs_stream(200)
        a, b = shift_register_pairs(bits, width=64)
        assert a.dtype == b.dtype == np.uint64
        assert as_pairs((a, b)) == window_oracle(bits, width=64)

    def test_short_stream_rejected(self):
        with pytest.raises(ValueError, match="16 bits"):
            shift_register_pairs([0] * 15)

    @given(st.lists(st.integers(0, 1), min_size=16, max_size=80))
    def test_oracle_agreement_property(self, bits):
        assert as_pairs(shift_register_pairs(bits)) == window_oracle(bits)


class TestLfsr:
    def test_deterministic(self):
        assert prbs_stream(64, seed=0xACE1) == prbs_stream(64, seed=0xACE1)
        assert prbs_stream(64, seed=0xACE1) != prbs_stream(64, seed=0xBEEF)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Lfsr16(0)

    def test_maximal_period(self):
        lfsr = Lfsr16(1)
        states = set()
        for _ in range(65535):
            states.add(lfsr.state)
            lfsr.next_bit()
        assert len(states) == 65535  # full cycle over nonzero states

    def test_balanced_ones(self):
        bits = prbs_stream(65535, seed=1)
        assert sum(bits) == 32768  # maximal-length property


class TestInputProgram:
    def test_chopped_blocks(self):
        prog = InputProgram.chopped(2, active_len=8, zero_len=8)
        assert len(prog.serial_bits) == 32
        assert prog.chop == (8, 8)
        assert all(b == 0 for b in prog.serial_bits[8:16])
        assert all(b == 0 for b in prog.serial_bits[24:32])
        assert any(prog.serial_bits[:8])

    def test_bad_chop(self):
        with pytest.raises(ValueError):
            InputProgram((0, 1), chop=(0, 4))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("0101 1100\n0011\n")
        prog = InputProgram.from_file(path)
        assert prog.serial_bits == (0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1)

    def test_file_rejects_non_bits(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("01012\n")
        with pytest.raises(ValueError):
            InputProgram.from_file(path)
