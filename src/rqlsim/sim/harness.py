"""Serial-input test harness: the on-chip 16-stage shift register and the
seeded pseudo-random bit source used to drive it.

Taps feed the adder starting with the LSB of word A and working up, then
wrapping around to the MSB of word B and working back down, so consecutive
cycles apply cyclically permuted addend pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LFSR16_TAPS = 0xB400  # x^16 + x^14 + x^13 + x^11 + 1, maximal length
DEFAULT_SEED = 0xACE1


class Lfsr16:
    """16-bit Galois LFSR; emits the low bit before each shift."""

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


def prbs_stream(n_bits: int, seed: int = DEFAULT_SEED) -> list[int]:
    return Lfsr16(seed).bits(n_bits)


@dataclass(frozen=True)
class InputProgram:
    """A serial bit stream, optionally chopped into alternating active/zero
    blocks (``chop = (active_len, zero_len)``)."""

    serial_bits: tuple[int, ...]
    chop: tuple[int, int] | None = None

    def __post_init__(self):
        if self.chop is not None:
            active, zero = self.chop
            if active <= 0 or zero <= 0:
                raise ValueError("chop block lengths must be positive")

    @classmethod
    def from_prbs(cls, n_bits: int, seed: int = DEFAULT_SEED) -> "InputProgram":
        return cls(tuple(prbs_stream(n_bits, seed)))

    @classmethod
    def chopped(
        cls,
        n_blocks: int,
        active_len: int,
        zero_len: int,
        seed: int = DEFAULT_SEED,
    ) -> "InputProgram":
        """``n_blocks`` repetitions of (active_len PRBS bits, zero_len zeros)."""
        gen = Lfsr16(seed)
        bits: list[int] = []
        for _ in range(n_blocks):
            bits.extend(gen.bits(active_len))
            bits.extend([0] * zero_len)
        return cls(tuple(bits), chop=(active_len, zero_len))

    @classmethod
    def from_file(cls, path) -> "InputProgram":
        with open(path) as fh:
            text = "".join(fh.read().split())
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"{path}: expected a bit-string file")
        return cls(tuple(int(c) for c in text))


def shift_register_pairs(
    serial_bits, width: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Operands generated by shifting a serial stream through a
    2*width-stage register, one bit per cycle, as two uint64 arrays
    ``(a, b)`` with one entry per cycle.

    The register starts cleared.  After each shift, window[k] is the bit
    received k cycles ago; A_i = window[i] and B_i = window[2*width-1-i].
    """
    bits = np.asarray(serial_bits, dtype=np.uint64) & np.uint64(1)
    stages = 2 * width
    if len(bits) < stages:
        raise ValueError(f"serial stream must hold at least {stages} bits")
    # window[k] at cycle t is padded[t + stages - 1 - k].
    n = len(bits)
    padded = np.concatenate([np.zeros(stages - 1, dtype=np.uint64), bits])
    a = np.zeros(n, dtype=np.uint64)
    b = np.zeros(n, dtype=np.uint64)
    for i in range(width):
        a |= padded[stages - 1 - i : stages - 1 - i + n] << np.uint64(i)
        b |= padded[i : i + n] << np.uint64(i)
    return a, b
