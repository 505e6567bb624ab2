"""The word-level evaluation kernel and its entry point.

Stimuli travel packed: ``pack_bits`` turns one input's bit per vector into
uint64 words, vector i at bit i % 64 of word i // 64.  ``run_program`` takes
those words per input name and returns the full slot/word value matrix;
``_eval_words`` evaluates the slots with numpy bitwise ops row by row over
the word axis.
"""

from __future__ import annotations

import numpy as np

from .encode import OP_AND, OP_ANDNOT, OP_BUF, OP_INPUT, OP_OR, Program


def backend_name() -> str:
    # Kept, with this exact value, because benchmark results and the sim
    # summary.json record it, and results from different kernels are not
    # compared.
    return "python"


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Bool/0-1 array of length n -> uint64 words, vector i at bit i%64."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    pad = (-len(packed)) % 8
    if pad:
        packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
    return packed.view(np.uint64)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_bits, trimmed to n entries."""
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:n]


def _eval_words(ops, src_a, src_b, values: np.ndarray) -> None:
    for s in range(values.shape[0]):
        op = ops[s]
        if op == OP_INPUT:
            continue
        a = values[src_a[s]]
        b = values[src_b[s]]
        if op == OP_OR:
            np.bitwise_or(a, b, out=values[s])
        elif op == OP_AND:
            np.bitwise_and(a, b, out=values[s])
        elif op == OP_ANDNOT:
            np.bitwise_and(a, np.bitwise_not(b), out=values[s])
        elif op == OP_BUF:
            values[s][:] = a


def run_program(
    program: Program,
    input_words: dict[str, np.ndarray],
    n_vectors: int,
) -> np.ndarray:
    """Evaluate all slots for ``n_vectors`` stimuli.

    ``input_words`` maps primary input names to their stimulus as
    ``pack_bits`` packs it: ``ceil(n_vectors / 64)`` uint64 words.  Returns
    the (n_slots, n_words) uint64 value matrix; tail bits of the last word
    beyond ``n_vectors`` are zero.
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
    _eval_words(program.ops, program.src_a, program.src_b, values)
    # Mask tail bits so popcounts see only real vectors.
    tail = n_vectors % 64
    if tail:
        values[:, -1] &= np.uint64((1 << tail) - 1)
    return values
