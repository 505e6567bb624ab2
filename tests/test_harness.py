import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rqlsim.sim import InputProgram, Lfsr16, prbs_stream, shift_register_pairs

REFERENCE_SEEDS = [1, 0xACE1, 0x1234, 0xFFFF]


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
        received.append(int(bit) & 1)
        window = [0] * stages
        for k in range(min(stages, len(received))):
            window[k] = received[-1 - k]
        a = sum(window[i] << i for i in range(width))
        b = sum(window[stages - 1 - i] << i for i in range(width))
        pairs.append((a, b))
    return pairs


def shifted_slice_pairs(serial_bits, width):
    """The operands as ``width`` shifted-slice ORs over the zero-padded
    stream, uint64 shifts past bit 63 giving 0: the reference for registers
    over 64 stages per operand, which keep bits 0..63 only."""
    bits = np.asarray(serial_bits, dtype=np.uint64) & np.uint64(1)
    stages = 2 * width
    n = len(bits)
    padded = np.concatenate([np.zeros(stages - 1, dtype=np.uint64), bits])
    a = np.zeros(n, dtype=np.uint64)
    b = np.zeros(n, dtype=np.uint64)
    for i in range(width):
        a |= padded[stages - 1 - i : stages - 1 - i + n] << np.uint64(i)
        b |= padded[i : i + n] << np.uint64(i)
    return a, b


def per_block_chopped_bits(n_blocks, active_len, zero_len, seed):
    """A chopped stream built block by block from one running Lfsr16."""
    gen = Lfsr16(seed)
    bits = []
    for _ in range(n_blocks):
        bits.extend(gen.bits(active_len))
        bits.extend([0] * zero_len)
    return bits


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
        bits = np.tile(prbs_stream(16), 3)
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

    @pytest.mark.parametrize("width", [0, -3])
    def test_non_positive_width_rejected(self, width):
        with pytest.raises(ValueError, match="width must be >= 1"):
            shift_register_pairs([0] * 16, width)

    @given(st.lists(st.integers(0, 1), min_size=16, max_size=80))
    def test_oracle_agreement_property(self, bits):
        assert as_pairs(shift_register_pairs(bits)) == window_oracle(bits)

    @pytest.mark.parametrize("width", range(1, 65))
    def test_every_width_at_the_register_length(self, width):
        """Streams of exactly 2*width bits, one bit more and 65 bits more,
        so that windows cross a 64-bit word."""
        rng = np.random.default_rng(width)
        for n in (2 * width, 2 * width + 1, 2 * width + 65):
            bits = rng.integers(0, 2, n)
            assert as_pairs(shift_register_pairs(bits, width)) == window_oracle(
                bits, width
            )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_width_property(self, data):
        width = data.draw(st.integers(1, 64), label="width")
        extra = data.draw(
            st.one_of(st.integers(0, 2), st.integers(0, 140)), label="extra"
        )
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=2 * width + extra,
                     max_size=2 * width + extra),
            label="bits",
        )
        a, b = shift_register_pairs(bits, width)
        assert a.dtype == b.dtype == np.uint64
        assert as_pairs((a, b)) == window_oracle(bits, width)

    @pytest.mark.parametrize("width", [65, 100])
    def test_width_over_64_keeps_the_low_64_bits(self, width):
        bits = prbs_stream(2 * width + 150, seed=0x1234)
        got = shift_register_pairs(bits, width)
        want = shifted_slice_pairs(bits, width)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        mask = (1 << 64) - 1
        assert as_pairs(got) == [
            (a & mask, b & mask) for a, b in window_oracle(bits, width)
        ]


class TestLfsr:
    def test_deterministic(self):
        assert np.array_equal(
            prbs_stream(64, seed=0xACE1), prbs_stream(64, seed=0xACE1)
        )
        assert not np.array_equal(
            prbs_stream(64, seed=0xACE1), prbs_stream(64, seed=0xBEEF)
        )

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Lfsr16(0)
        with pytest.raises(ValueError):
            prbs_stream(100, seed=0x10000)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            prbs_stream(-1)

    def test_maximal_period(self):
        lfsr = Lfsr16(1)
        states = set()
        for _ in range(65535):
            states.add(lfsr.state)
            lfsr.next_bit()
        assert len(states) == 65535  # full cycle over nonzero states

    def test_balanced_ones(self):
        bits = prbs_stream(65535, seed=1)
        assert int(bits.sum()) == 32768  # maximal-length property

    def test_stream_is_read_only_uint8(self):
        bits = prbs_stream(100)
        assert bits.dtype == np.uint8
        assert not bits.flags.writeable


def _boundary_lengths():
    """Every 16 * 2**k - 1, + 0 and + 1 up to 2**18, where the fill moves
    to the next lag scale."""
    return sorted(
        {16 * (1 << k) + d for k in range(15) for d in (-1, 0, 1)}
    )


class TestPrbsStreamMatchesLfsr:
    """``prbs_stream`` against ``Lfsr16.next_bit``, bit for bit."""

    @pytest.mark.parametrize("seed", REFERENCE_SEEDS, ids=hex)
    def test_short_lengths(self, seed):
        want = Lfsr16(seed).bits(40)
        for n in range(41):
            assert prbs_stream(n, seed).tolist() == want[:n]

    @pytest.mark.parametrize("seed", REFERENCE_SEEDS, ids=hex)
    def test_doubling_boundaries(self, seed):
        lengths = _boundary_lengths()
        assert lengths[-1] == (1 << 18) + 1
        want = np.array(Lfsr16(seed).bits(lengths[-1]), dtype=np.uint8)
        for n in lengths:
            assert np.array_equal(prbs_stream(n, seed), want[:n]), n

    @pytest.mark.parametrize("seed", REFERENCE_SEEDS, ids=hex)
    def test_full_period_and_wrap(self, seed):
        period = 65535
        lfsr = Lfsr16(seed)
        want = np.array(lfsr.bits(period), dtype=np.uint8)
        assert lfsr.state == seed  # the LFSR is back where it started
        got = prbs_stream(2 * period + 40, seed)
        assert np.array_equal(got[:period], want)
        assert np.array_equal(got[period : 2 * period], want)
        assert np.array_equal(got[2 * period :], want[:40])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 0xFFFF), st.integers(0, 3000))
    def test_any_seed(self, seed, n):
        assert prbs_stream(n, seed).tolist() == Lfsr16(seed).bits(n)


class TestInputProgram:
    def test_chopped_blocks(self):
        prog = InputProgram.chopped(2, active_len=8, zero_len=8)
        assert len(prog.serial_bits) == 32
        assert prog.chop == (8, 8)
        assert all(b == 0 for b in prog.serial_bits[8:16])
        assert all(b == 0 for b in prog.serial_bits[24:32])
        assert any(prog.serial_bits[:8])

    @pytest.mark.parametrize(
        "n_blocks, active, zero, seed",
        [(2, 8, 8, 0xACE1), (3, 24, 24, 0xACE1), (4, 200, 200, 1),
         (5, 17, 3, 0xFFFF), (1, 40000, 1, 0x1234), (0, 5, 5, 0xACE1)],
    )
    def test_chopped_matches_per_block_lfsr(self, n_blocks, active, zero, seed):
        prog = InputProgram.chopped(n_blocks, active, zero, seed=seed)
        assert prog.serial_bits.dtype == np.uint8
        assert not prog.serial_bits.flags.writeable
        assert prog.serial_bits.tolist() == per_block_chopped_bits(
            n_blocks, active, zero, seed
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 6), st.integers(1, 300), st.integers(1, 300),
        st.integers(1, 0xFFFF),
    )
    def test_chopped_property(self, n_blocks, active, zero, seed):
        prog = InputProgram.chopped(n_blocks, active, zero, seed=seed)
        assert prog.serial_bits.tolist() == per_block_chopped_bits(
            n_blocks, active, zero, seed
        )

    def test_bad_chop(self):
        with pytest.raises(ValueError):
            InputProgram((0, 1), chop=(0, 4))

    @pytest.mark.parametrize("chop", [(0, 4), (4, 0), (-1, 4)])
    def test_bad_chop_refused_before_building(self, chop):
        with pytest.raises(ValueError, match="must be positive"):
            InputProgram((0, 1), chop=chop)
        with pytest.raises(ValueError, match="must be positive"):
            InputProgram.chopped(2, *chop)

    def test_from_prbs_is_the_stream(self):
        prog = InputProgram.from_prbs(500, seed=0x1234)
        assert prog.serial_bits.tolist() == Lfsr16(0x1234).bits(500)
        assert not prog.serial_bits.flags.writeable

    def test_caller_array_is_copied(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        prog = InputProgram(bits)
        bits[0] = 1
        assert prog.serial_bits.tolist() == [0, 1, 1, 0]
        assert not prog.serial_bits.flags.writeable

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("0101 1100\n0011\n")
        prog = InputProgram.from_file(path)
        assert prog.serial_bits.dtype == np.uint8
        assert not prog.serial_bits.flags.writeable
        assert np.array_equal(
            prog.serial_bits, [0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1]
        )

    def test_file_ignores_unicode_whitespace(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("01 10 \r\n1", encoding="utf-8")
        assert InputProgram.from_file(path).serial_bits.tolist() == [0, 1, 1, 0, 1]

    def test_file_rejects_non_bits(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("01012\n")
        with pytest.raises(ValueError):
            InputProgram.from_file(path)

    @pytest.mark.parametrize("text", ["01012\n", "", " \n", "0x01"])
    def test_file_rejection_message(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="expected a bit-string file"):
            InputProgram.from_file(path)

    def test_file_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0101\xff01\n")
        with pytest.raises(ValueError, match="not a UTF-8") as exc:
            InputProgram.from_file(path)
        assert str(path) in str(exc.value)
