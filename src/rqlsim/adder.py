"""Parameterized Kogge-Stone carry look-ahead adder generator.

The radix-2 prefix network is built demand-driven: a node computes its
propagate output only if some later consumer needs it, so block outputs at
the boundaries collapse to And-only or Or-only gates.  Early-finishing
carries and the partial sums ride delay-cell ladders (shared per driver pin)
until the final XOR column; one or more idle phases, by default placed
before the last carry column, hold only interconnect cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gates import DEFAULT_GATE_TABLE, GateKind, GateSpec
from .netlist import Gate, Netlist, Pin

SUPPORTED_WIDTHS = (2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class StageLayout:
    """Mapping from logic stages to clock phases, including idle phases."""

    n_bits: int
    idle_phases: int = 1
    idle_position: int | None = None  # stage index the idles go before

    def __post_init__(self):
        if self.n_bits not in SUPPORTED_WIDTHS:
            raise ValueError(
                f"width must be one of {SUPPORTED_WIDTHS}, got {self.n_bits}"
            )
        if self.idle_phases < 0:
            raise ValueError("idle_phases must be >= 0")
        pos = self.resolved_idle_position
        if self.idle_phases and not 1 <= pos <= self.n_logic_stages - 1:
            raise ValueError(f"idle_position {pos} out of range")

    @property
    def n_logic_stages(self) -> int:
        return int(math.log2(self.n_bits)) + 2

    @property
    def resolved_idle_position(self) -> int:
        if self.idle_position is not None:
            return self.idle_position
        # Default: right before the last carry column.
        return self.n_logic_stages - 2

    @property
    def total_phases(self) -> int:
        return self.n_logic_stages + self.idle_phases

    @property
    def idle_phase_indices(self) -> tuple[int, ...]:
        if not self.idle_phases:
            return ()
        start = self.resolved_idle_position
        return tuple(range(start, start + self.idle_phases))

    def phase_of_stage(self, stage: int) -> int:
        if not 0 <= stage < self.n_logic_stages:
            raise ValueError(f"stage {stage} out of range")
        if self.idle_phases and stage >= self.resolved_idle_position:
            return stage + self.idle_phases
        return stage


@dataclass
class LatencyReport:
    phases: int
    cycles: float
    latency_ps: float


def latency(netlist_or_phases, frequency_hz: float) -> LatencyReport:
    """Pipeline latency: one clock phase per stage, four phases per cycle."""
    if isinstance(netlist_or_phases, Netlist):
        phases = netlist_or_phases.total_phases
    elif isinstance(netlist_or_phases, StageLayout):
        phases = netlist_or_phases.total_phases
    else:
        phases = int(netlist_or_phases)
    if phases <= 0:
        raise ValueError("netlist has no assigned phases")
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    cycles = phases / 4.0
    return LatencyReport(phases, cycles, cycles * 1e12 / frequency_hz)


class _MutableNet:
    """Construction scratchpad: parallel lists indexed by gate id."""

    def __init__(self, idle_set, ptl_length_um):
        self.kinds: list[GateKind] = []
        self.fanins: list[list[Pin]] = []
        self.phases: list[int] = []
        self.names: list[str] = []
        self.regions: list[str] = []
        self.ptls: list[float | None] = []
        self.ladders: dict[Pin, dict[int, Pin]] = {}
        self.long_pins: set[Pin] = set()
        self.idle_set = set(idle_set)
        self.ptl_length_um = ptl_length_um

    def add(self, kind, fanin, phase, name, region="cla_core", ptl=None) -> int:
        gid = len(self.kinds)
        self.kinds.append(kind)
        self.fanins.append(list(fanin))
        self.phases.append(phase)
        self.names.append(name)
        self.regions.append(region)
        self.ptls.append(ptl)
        return gid

    def ladder(self, pin: Pin, to_phase: int) -> Pin:
        """Delayed copy of ``pin`` at ``to_phase``, sharing cells per pin."""
        chain = self.ladders.setdefault(pin, {self.phases[pin.gid]: pin})
        base = self.phases[pin.gid]
        for p in range(base + 1, to_phase + 1):
            if p in chain:
                continue
            prev = chain[p - 1]
            tag = f"pad_{pin.gid}.{pin.pin}_p{p}"
            if (
                p in self.idle_set
                and pin in self.long_pins
                and self.ptl_length_um is not None
            ):
                # Long lateral crossing the idle phase rides a passive
                # stripline between an active driver/receiver pair.
                d = self.add(GateKind.PTL_DRIVER, [prev], p, tag + "d")
                r = self.add(
                    GateKind.PTL_RECEIVER,
                    [Pin(d, 0)],
                    p,
                    tag + "r",
                    ptl=self.ptl_length_um,
                )
                chain[p] = Pin(r, 0)
            else:
                d = self.add(GateKind.DELAY, [prev], p, tag)
                chain[p] = Pin(d, 0)
        return chain[to_phase]

    def pad_edges(self) -> None:
        """Insert delay ladders so every net spans at most one phase."""
        for gid in range(len(self.kinds)):
            target = self.phases[gid] - 1
            fanin = self.fanins[gid]
            for k, pin in enumerate(fanin):
                if self.phases[pin.gid] < target:
                    fanin[k] = self.ladder(pin, target)

    def freeze(self, table, inputs, outputs, width, layout, chip_mode) -> Netlist:
        gates = []
        for gid, kind in enumerate(self.kinds):
            gates.append(
                Gate(
                    gid,
                    table[kind],
                    tuple(self.fanins[gid]),
                    self.phases[gid],
                    self.names[gid],
                    self.regions[gid],
                    self.ptls[gid],
                )
            )
        return Netlist(
            gates,
            inputs,
            outputs,
            width,
            layout.total_phases,
            layout.idle_phase_indices,
            chip_mode,
        )


class _PrefixBuilder:
    """Demand-driven Kogge-Stone prefix network over (generate, propagate).

    ``node(level, i)`` combines position ``i`` with ``j = i - 2**level``;
    positions with ``i < 2**level`` pass through unchanged.
    """

    def __init__(self, net: _MutableNet, layout: StageLayout, base_pins):
        self.net = net
        self.layout = layout
        self.base = base_pins  # bit -> (g_pin, p_pin)
        self.levels = int(math.log2(layout.n_bits))
        self.memo: dict[tuple[int, int], dict] = {}

    def node(self, level: int, i: int, need_p: bool):
        if level < 0:
            return self.base[i]
        if i < 2 ** level:
            return self.node(level - 1, i, need_p)
        key = (level, i)
        entry = self.memo.get(key)
        if entry is None:
            j = i - 2 ** level
            xg, xp = self.node(level - 1, i, True)
            yg, _ = self.node(level - 1, j, False)
            phase = self.layout.phase_of_stage(level + 1)
            tag = f"pfx{level}_{i}"
            pg = self.net.add(GateKind.ANDOR, [xp, yg], phase, tag + "_pg")
            g = self.net.add(GateKind.ANDOR, [Pin(pg, 1), xg], phase, tag + "_g")
            entry = {"g": Pin(g, 0), "p": None, "phase": phase, "tag": tag}
            self.memo[key] = entry
            if level == self.levels - 1:
                # Top-level lateral inputs are the longest wires on the die.
                self.net.long_pins.add(yg)
        if need_p and entry["p"] is None:
            j = i - 2 ** level
            _, xp = self.node(level - 1, i, True)
            _, yp = self.node(level - 1, j, True)
            p = self.net.add(
                GateKind.ANDOR, [xp, yp], entry["phase"], entry["tag"] + "_p"
            )
            entry["p"] = Pin(p, 1)
        return entry["g"], entry["p"]


def build_kogge_stone(
    n_bits: int,
    *,
    idle_phases: int = 1,
    idle_position: int | None = None,
    chip_mode: bool = False,
    max_fanout: int = 4,
    gate_table: dict[GateKind, GateSpec] | None = None,
    ptl_length_um: float | None = None,
) -> Netlist:
    """Generate a complete phase-assigned N-bit adder netlist.

    The result is fanout-legalized and delay-padded; outputs are S0..S(N-1)
    plus Cout unless ``chip_mode`` truncates to the sum bits only.
    ``ptl_length_um``, when given, replaces the idle-phase hop of each
    longest lateral wire with a driver/receiver pair around a passive
    stripline of that length, finite and >= 0.
    """
    if ptl_length_um is not None and not 0 <= ptl_length_um < math.inf:
        raise ValueError(
            f"stripline length must be finite and >= 0, got {ptl_length_um}"
        )
    layout = StageLayout(n_bits, idle_phases, idle_position)
    table = dict(DEFAULT_GATE_TABLE)
    if gate_table:
        table.update(gate_table)

    net = _MutableNet(layout.idle_phase_indices, ptl_length_um)
    inputs: dict[str, int] = {}
    outputs: dict[str, Pin] = {}

    # Stage 0: sources and the And/Or column producing (P_i, G_i).
    a_pins, b_pins, base = [], [], []
    for i in range(n_bits):
        a = net.add(GateKind.SOURCE, [], 0, f"A{i}", region="io")
        inputs[f"A{i}"] = a
        a_pins.append(Pin(a, 0))
    for i in range(n_bits):
        b = net.add(GateKind.SOURCE, [], 0, f"B{i}", region="io")
        inputs[f"B{i}"] = b
        b_pins.append(Pin(b, 0))
    for i in range(n_bits):
        g = net.add(GateKind.ANDOR, [a_pins[i], b_pins[i]], 0, f"aor{i}")
        base.append((Pin(g, 1), Pin(g, 0)))  # (G = and, P = or)

    # Partial sums A_i^B_i = P_i and-not G_i live beside the first carry
    # column.
    psum_phase = layout.phase_of_stage(1)
    psums = []
    for i in range(n_bits):
        g_pin, p_pin = base[i]
        s = net.add(GateKind.ANOTB, [p_pin, g_pin], psum_phase, f"psum{i}")
        psums.append(Pin(s, 0))

    # Carry network.
    prefix = _PrefixBuilder(net, layout, base)
    carries = [None]  # no carry into bit 0
    for i in range(1, n_bits):
        g_pin, _ = prefix.node(prefix.levels - 1, i - 1, False)
        carries.append(g_pin)
    cout_pin = None
    if not chip_mode:
        cout_pin, _ = prefix.node(prefix.levels - 1, n_bits - 1, False)

    # Final column: S_i = psum_i XOR C_i (bit 0 has no carry).
    xor_phase = layout.phase_of_stage(layout.n_logic_stages - 1)
    sum_pins = [psums[0]]
    for i in range(1, n_bits):
        ao = net.add(
            GateKind.ANDOR, [psums[i], carries[i]], xor_phase, f"sum{i}_ao"
        )
        nb = net.add(
            GateKind.ANOTB, [Pin(ao, 0), Pin(ao, 1)], xor_phase, f"sum{i}_nb"
        )
        sum_pins.append(Pin(nb, 0))

    net.pad_edges()

    # Align every primary output to the last phase and anchor it on a sink.
    last = layout.total_phases - 1
    out_list = [(f"S{i}", sum_pins[i]) for i in range(n_bits)]
    if cout_pin is not None:
        out_list.append(("Cout", cout_pin))
    for name, pin in out_list:
        if net.phases[pin.gid] < last:
            pin = net.ladder(pin, last)
        net.add(GateKind.SINK, [pin], last, f"out_{name}", region="io")
        outputs[name] = pin

    netlist = net.freeze(table, inputs, outputs, n_bits, layout, chip_mode)
    return legalize_fanout(netlist, max_fanout)


def legalize_fanout(netlist: Netlist, max_fanout: int = 4) -> Netlist:
    """Bound every output pin to ``max_fanout`` receivers with splitter trees.

    Consumers of an over-driven pin are grouped by phase; each group gets a
    balanced tree of Split cells at that phase, filled breadth-first so the
    tree has minimum depth.  Ties are broken by consumer id and input index,
    which keeps the result deterministic.
    """
    if max_fanout < 2:
        raise ValueError("max_fanout must be at least 2")

    gates = {g.gid: g for g in netlist.gates}
    next_gid = max(gates) + 1 if gates else 0
    new_gates: list[Gate] = []
    rewires: dict[tuple[int, int], Pin] = {}
    split_spec = next(
        (g.spec for g in netlist.gates if g.kind is GateKind.SPLIT),
        DEFAULT_GATE_TABLE[GateKind.SPLIT],
    )

    for pin, consumers in sorted(netlist.fanout_map().items()):
        if len(consumers) <= max_fanout:
            continue
        by_phase: dict[int, list[tuple[int, int]]] = {}
        for cid, idx in sorted(consumers):
            by_phase.setdefault(gates[cid].phase, []).append((cid, idx))

        # Each pin (the driver or a split output) may feed max_fanout nodes;
        # share the driver's direct slots across phase groups, largest first.
        budget = {}
        spare = max_fanout - len(by_phase)
        if spare < 0:
            raise ValueError(f"pin {pin}: consumers span too many phases")
        for phase in sorted(by_phase, key=lambda p: (-len(by_phase[p]), p)):
            extra = min(spare, max(0, len(by_phase[phase]) - 1))
            budget[phase] = 1 + extra
            spare -= extra

        for phase in sorted(by_phase):
            group = by_phase[phase]
            # One slot is one unit of pin capacity.  Splitting the earliest
            # slot first is breadth-first expansion, which minimizes depth.
            slots = [pin] * min(budget[phase], len(group))
            cursor = 0
            while len(slots) - cursor < len(group):
                parent = slots[cursor]
                cursor += 1
                s = Gate(
                    next_gid,
                    split_spec,
                    (parent,),
                    phase,
                    f"split{next_gid}",
                    gates[pin.gid].region,
                )
                new_gates.append(s)
                gates[s.gid] = s
                next_gid += 1
                slots.extend([Pin(s.gid, 0)] * max_fanout)
                slots.extend([Pin(s.gid, 1)] * max_fanout)
            for k, (cid, idx) in enumerate(group):
                rewires[(cid, idx)] = slots[cursor + k]

    if not new_gates:
        return netlist

    rebuilt = []
    for g in netlist.gates:
        if any((g.gid, i) in rewires for i in range(len(g.fanin))):
            fanin = tuple(
                rewires.get((g.gid, i), p) for i, p in enumerate(g.fanin)
            )
            g = Gate(g.gid, g.spec, fanin, g.phase, g.name, g.region, g.ptl_um)
        rebuilt.append(g)
    rebuilt.extend(new_gates)
    return netlist.replace_gates(rebuilt)


def assign_phases(netlist: Netlist, layout: StageLayout) -> Netlist:
    """Re-map a netlist onto a new phase layout.

    Padding cells from the previous layout (every Delay, PtlDriver and
    PtlReceiver, each a logical identity) are stripped, logic gates move to
    the phase their stage gets under ``layout``, and the delay ladders are
    rebuilt (stripline annotations are not preserved across a re-layout).
    """
    if layout.n_bits != netlist.width:
        raise ValueError("layout width does not match netlist")
    netlist.topo_order()  # raises on a structural defect

    old_idles = set(netlist.idle_phases)

    def stage_of(phase: int) -> int:
        return phase - sum(1 for p in old_idles if p <= phase)

    interconnect = (GateKind.DELAY, GateKind.PTL_DRIVER, GateKind.PTL_RECEIVER)
    pads = {g.gid for g in netlist.gates if g.kind in interconnect}
    sinks = {g.gid for g in netlist.gates if g.kind is GateKind.SINK}

    def resolve(pin: Pin) -> Pin:
        while pin.gid in pads:
            pin = netlist.gate(pin.gid).fanin[0]
        return pin

    net = _MutableNet(layout.idle_phase_indices, None)
    gid_map: dict[int, int] = {}
    table: dict[GateKind, GateSpec] = {}
    for g in sorted(netlist.gates, key=lambda g: g.gid):
        table.setdefault(g.kind, g.spec)
        if g.gid in pads or g.gid in sinks:
            continue
        phase = layout.phase_of_stage(stage_of(g.phase))
        gid_map[g.gid] = net.add(g.kind, [], phase, g.name, g.region)

    for g in netlist.gates:
        if g.gid in pads or g.gid in sinks:
            continue
        net.fanins[gid_map[g.gid]] = [
            Pin(gid_map[p.gid], p.pin) for p in map(resolve, g.fanin)
        ]

    net.pad_edges()

    last = layout.total_phases - 1
    inputs = {n: gid_map[g] for n, g in netlist.inputs.items()}
    outputs: dict[str, Pin] = {}
    for name, pin in netlist.outputs.items():
        p = resolve(pin)
        p = Pin(gid_map[p.gid], p.pin)
        if net.phases[p.gid] < last:
            p = net.ladder(p, last)
        net.add(GateKind.SINK, [p], last, f"out_{name}", region="io")
        outputs[name] = p

    for kind, spec in DEFAULT_GATE_TABLE.items():
        table.setdefault(kind, spec)
    return net.freeze(
        table, inputs, outputs, netlist.width, layout, netlist.chip_mode
    )
