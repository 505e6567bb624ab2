"""The word-level evaluation kernel and its entry point.

Stimuli travel packed: vector i sits at bit i % 64 of word i // 64.
``transpose64`` turns 64 operand values into 64 such words, one per operand
bit, and back.  ``run_program`` takes the words per input name and returns
their slot/word value matrix, one numpy op per group of the levelized
schedule ``encode`` builds; ``simulate_logic`` calls it once per block of
vectors, which bounds the matrix.
"""

from __future__ import annotations

import numpy as np

from .encode import OP_AND, OP_ANDNOT, OP_OR, Program

# Round j of the 64 x 64 bit transpose swaps bit j of the row index with bit
# j of the column index; the mask keeps the columns whose bit j is clear.
_TRANSPOSE_ROUNDS = [
    (j, np.uint64(mask))
    for j, mask in (
        (32, 0x00000000FFFFFFFF),
        (16, 0x0000FFFF0000FFFF),
        (8, 0x00FF00FF00FF00FF),
        (4, 0x0F0F0F0F0F0F0F0F),
        (2, 0x3333333333333333),
        (1, 0x5555555555555555),
    )
]


def backend_name() -> str:
    # Kept, with this exact value, because benchmark results and the sim
    # summary.json record it, and results from different kernels are not
    # compared.
    return "python"


def transpose64(blocks: np.ndarray) -> None:
    """Transpose, in place, each 64 x 64 bit matrix of a C-contiguous
    ``(m, 64)`` uint64 array: bit c of ``blocks[k, r]`` and bit r of
    ``blocks[k, c]`` trade places.  Six masked shift/xor rounds (Hacker's
    Delight, section 7-3); a round's temporary is half the array."""
    m = blocks.shape[0]
    for j, mask in _TRANSPOSE_ROUNDS:
        pairs = blocks.reshape(m, 32 // j, 2, j)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        shift = np.uint64(j)
        t = lo >> shift
        t ^= hi
        t &= mask
        hi ^= t
        t <<= shift
        lo ^= t


def _eval_groups(groups, values: np.ndarray) -> None:
    for op, dst, a, b in groups:
        x = values[a]
        if op == OP_OR:
            x |= values[b]
        elif op == OP_AND:
            x &= values[b]
        elif op == OP_ANDNOT:
            x &= ~values[b]
        values[dst] = x  # OP_BUF copies its source


def run_program(
    program: Program,
    input_words: dict[str, np.ndarray],
    n_vectors: int,
) -> np.ndarray:
    """Evaluate all slots for ``n_vectors`` stimuli.

    ``input_words`` maps primary input names to their packed stimulus:
    ``ceil(n_vectors / 64)`` uint64 words.  Returns the (n_slots, n_words)
    uint64 value matrix; tail bits of the last word beyond ``n_vectors``
    are zero.
    """
    n_words = (n_vectors + 63) // 64
    values = np.zeros((program.n_slots, n_words), dtype=np.uint64)
    for name, slot in program.input_slots.items():
        try:
            words = input_words[name]
        except KeyError:
            raise ValueError(f"missing stimulus for input {name!r}") from None
        if len(words) != n_words:
            raise ValueError(f"stimulus {name!r} has wrong length")
        values[slot] = words
    _eval_groups(program.groups, values)
    # Mask tail bits so popcounts see only real vectors.
    tail = n_vectors % 64
    if tail:
        values[:, -1] &= np.uint64((1 << tail) - 1)
    return values
