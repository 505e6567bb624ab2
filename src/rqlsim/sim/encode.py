"""Compile a netlist into a flat slot program for bit-parallel evaluation.

Every gate output pin becomes one value slot; slots are ordered topologically
so a single forward pass evaluates the whole DAG.  Values are uint64 words
holding 64 input vectors each.  ``groups`` is the levelized schedule of that
pass: the non-input slots grouped by (logic level, op), each group's sources
lying at lower levels, so one group is one vector op over all its slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..gates import N_OUTPUTS, GateKind
from ..netlist import Netlist, per_netlist

OP_INPUT = 0
OP_OR = 1
OP_AND = 2
OP_ANDNOT = 3
OP_BUF = 4


@dataclass
class Program:
    ops: np.ndarray  # uint8, per slot
    src_a: np.ndarray  # int32, per slot
    src_b: np.ndarray  # int32, per slot
    n_slots: int
    input_slots: dict[str, int]  # primary input name -> slot
    output_slots: dict[str, int]  # primary output name -> slot
    gate_ids: np.ndarray  # gates with output pins, in slot order
    gate_starts: np.ndarray  # first slot of each of those gates

    @cached_property
    def groups(self) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """``(op, destination slots, src_a, src_b)`` per (logic level, op),
        in level order; built on first use, which keeps it out of
        ``encode``.

        An input sits at level 0 and any other slot one above its deepest
        source.  The levels are a fixpoint over all slots at once, one
        vectorized pass per level; a buffer's ``src_b`` is a placeholder
        and does not count."""
        todo = np.flatnonzero(self.ops != OP_INPUT)
        op = self.ops[todo]
        a = self.src_a[todo]
        b = np.where(op == OP_BUF, a, self.src_b[todo])
        level = np.zeros(self.n_slots, dtype=np.int64)
        while True:
            new = np.maximum(level[a], level[b]) + 1
            if np.array_equal(new, level[todo]):
                break
            level[todo] = new
        key = level[todo] * 8 + op
        order = np.argsort(key, kind="stable")
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        return [
            (int(op[run[0]]), todo[run], a[run], b[run])
            for run in np.split(order, cuts)
            if len(run)
        ]


@per_netlist
def encode(netlist: Netlist) -> Program:
    order = netlist.topo_order()
    pin_slot: dict[tuple[int, int], int] = {}  # a Pin looks up its (gid, pin)
    ops: list[int] = []
    src_a: list[int] = []
    src_b: list[int] = []
    gate_ids: list[int] = []
    gate_starts: list[int] = []
    input_slots: dict[str, int] = {}

    gid_to_input = {gid: name for name, gid in netlist.inputs.items()}

    for gid in order:
        g = netlist.gate(gid)
        kind = g.kind
        first = len(ops)
        srcs = [pin_slot[p] for p in g.fanin]
        if kind is GateKind.ANDOR:
            ops += [OP_OR, OP_AND]
            src_a += [srcs[0], srcs[0]]
            src_b += [srcs[1], srcs[1]]
        elif kind is GateKind.ANOTB:
            ops.append(OP_ANDNOT)
            src_a.append(srcs[0])
            src_b.append(srcs[1])
        elif kind is GateKind.SPLIT:
            ops += [OP_BUF, OP_BUF]
            src_a += [srcs[0], srcs[0]]
            src_b += [0, 0]
        elif kind in (GateKind.DELAY, GateKind.PTL_DRIVER, GateKind.PTL_RECEIVER):
            ops.append(OP_BUF)
            src_a.append(srcs[0])
            src_b.append(0)
        elif kind is GateKind.SOURCE:
            ops.append(OP_INPUT)
            src_a.append(0)
            src_b.append(0)
            name = gid_to_input.get(gid)
            if name is not None:
                input_slots[name] = first
        elif kind is GateKind.SINK:
            continue  # no output pins
        for k in range(N_OUTPUTS[kind]):
            pin_slot[gid, k] = first + k
        gate_ids.append(gid)
        gate_starts.append(first)

    return Program(
        ops=np.asarray(ops, dtype=np.uint8),
        src_a=np.asarray(src_a, dtype=np.int32),
        src_b=np.asarray(src_b, dtype=np.int32),
        n_slots=len(ops),
        input_slots=input_slots,
        output_slots={name: pin_slot[pin] for name, pin in netlist.outputs.items()},
        gate_ids=np.asarray(gate_ids, dtype=np.int64),
        gate_starts=np.asarray(gate_starts, dtype=np.intp),
    )
