"""Serial-input test harness: the on-chip 16-stage shift register and the
seeded pseudo-random bit source used to drive it.

Taps feed the adder starting with the LSB of word A and working up, then
wrapping around to the MSB of word B and working back down, so consecutive
cycles apply cyclically permuted addend pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..units import read_text

LFSR16_TAPS = 0xB400  # x^16 + x^14 + x^13 + x^11 + 1, maximal length
DEFAULT_SEED = 0xACE1

# The LFSR's output obeys s[n] = s[n-16] ^ s[n-14] ^ s[n-13] ^ s[n-11];
# squaring the polynomial k times gives the same recurrence at lags * 2**k.
_LAGS = (16, 14, 13, 11)

_SHIFTS = np.arange(64, dtype=np.uint64)


class Lfsr16:
    """16-bit Galois LFSR; emits the low bit before each shift.

    The bit-at-a-time reference model of ``prbs_stream``.
    """

    def __init__(self, seed: int = DEFAULT_SEED):
        seed &= 0xFFFF
        if seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        self.state = seed

    def next_bit(self) -> int:
        bit = self.state & 1
        self.state >>= 1
        if bit:
            self.state ^= LFSR16_TAPS
        return bit

    def bits(self, n: int) -> list[int]:
        return [self.next_bit() for _ in range(n)]


def prbs_stream(n_bits: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """The first ``n_bits`` bits of ``Lfsr16(seed)`` as a read-only uint8
    array.

    The first 16 bits come from the LFSR itself; the rest follow from the
    recurrence at the widest lag scale ``m = 2**k`` whose ``16 * m`` lag the
    filled prefix reaches, ``11 * m`` bits per xor.
    """
    if n_bits < 0:
        raise ValueError(f"bit count must be >= 0, got {n_bits}")
    bits = np.empty(n_bits, dtype=np.uint8)
    head = min(n_bits, _LAGS[0])
    bits[:head] = Lfsr16(seed).bits(head)
    m = 1
    filled = head
    while filled < n_bits:
        while 2 * _LAGS[0] * m <= filled:
            m *= 2
        end = min(n_bits, filled + _LAGS[-1] * m)
        new = bits[filled:end]
        lag0, *rest = (lag * m for lag in _LAGS)
        np.copyto(new, bits[filled - lag0 : end - lag0])
        for lag in rest:
            new ^= bits[filled - lag : end - lag]
        filled = end
    bits.flags.writeable = False
    return bits


def _check_chop(active: int, zero: int) -> None:
    if active <= 0 or zero <= 0:
        raise ValueError("chop block lengths must be positive")


@dataclass(frozen=True, eq=False)
class InputProgram:
    """A serial bit stream, optionally chopped into alternating active/zero
    blocks (``chop = (active_len, zero_len)``).

    ``serial_bits`` is held as a read-only uint8 array.
    """

    serial_bits: np.ndarray
    chop: tuple[int, int] | None = None

    def __post_init__(self):
        if self.chop is not None:
            _check_chop(*self.chop)
        bits = np.asarray(self.serial_bits, dtype=np.uint8)
        if bits.flags.writeable:
            bits = bits.copy()
            bits.flags.writeable = False
        object.__setattr__(self, "serial_bits", bits)

    @classmethod
    def from_prbs(cls, n_bits: int, seed: int = DEFAULT_SEED) -> "InputProgram":
        return cls(prbs_stream(n_bits, seed))

    @classmethod
    def chopped(
        cls,
        n_blocks: int,
        active_len: int,
        zero_len: int,
        seed: int = DEFAULT_SEED,
    ) -> "InputProgram":
        """``n_blocks`` repetitions of (active_len PRBS bits, zero_len zeros),
        the active blocks cut from one continuous PRBS stream."""
        _check_chop(active_len, zero_len)
        blocks = np.zeros((n_blocks, active_len + zero_len), dtype=np.uint8)
        blocks[:, :active_len] = prbs_stream(n_blocks * active_len, seed).reshape(
            n_blocks, active_len
        )
        return cls(blocks.ravel(), chop=(active_len, zero_len))

    @classmethod
    def from_file(cls, path) -> "InputProgram":
        """A UTF-8 text file of ``0``/``1`` characters; whitespace is ignored."""
        text = "".join(read_text(path, "bit-string file").split())
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"{path}: expected a bit-string file")
        return cls(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))


def _windows(bits: np.ndarray, lead: int, n: int) -> np.ndarray:
    """Entry ``t`` of ``n``: bits ``t .. t+63`` of the stream ``lead`` zeros,
    then ``bits``, then zeros, as one uint64 whose bit ``k`` is bit ``t+k``.

    The stream is packed LSB-first into words once; window ``64*j + r`` is
    word ``j`` shifted down by ``r`` or'ed with word ``j+1`` shifted up by
    ``64 - r`` (numpy defines a uint64 shift by 64 as 0).
    """
    n_words = (n + 63) // 64 + 1
    stream = np.zeros(64 * n_words, dtype=np.uint8)
    body = bits[: len(stream) - lead]
    stream[lead : lead + len(body)] = body & 1
    words = np.packbits(stream, bitorder="little").view("<u8")
    windows = (words[:-1, None] >> _SHIFTS) | (
        words[1:, None] << (np.uint64(64) - _SHIFTS)
    )
    return windows.ravel()[:n]


def shift_register_pairs(
    serial_bits, width: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Operands generated by shifting a serial stream through a
    2*width-stage register, one bit per cycle, as two uint64 arrays
    ``(a, b)`` with one entry per cycle.

    The register starts cleared.  After each shift, window[k] is the bit
    received k cycles ago; A_i = window[i] and B_i = window[2*width-1-i].
    Only bits 0..63 are kept, so a register over 64 stages per operand
    yields the low 64 bits of each.
    """
    if width < 1:
        raise ValueError(f"register width must be >= 1, got {width}")
    bits = np.asarray(serial_bits)
    stages = 2 * width
    if len(bits) < stages:
        raise ValueError(f"serial stream must hold at least {stages} bits")
    # At cycle t, A_i = bits[t - i] and B_i = bits[t + i - (stages - 1)],
    # zero before the stream starts: B is the window from t of the stream
    # behind stages - 1 zeros, and A, read from cycle n - 1 down, the
    # window from n - 1 - t of the reversed stream.
    n = len(bits)
    a = _windows(bits[::-1], 0, n)[::-1].copy()
    b = _windows(bits, stages - 1, n)
    if width < 64:
        mask = np.uint64((1 << width) - 1)
        a &= mask
        b &= mask
    return a, b
