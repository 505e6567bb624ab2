"""Phase-assigned gate netlists: the artifact every analysis consumes.

A netlist is a DAG of gates.  Each gate carries its resolved device spec and
a clock phase; nets connect a driver output pin to consumer input pins.  Two
sets of rules judge a netlist.  ``defects`` finds the structural faults no
analysis can run on (a fanin count that does not fit the kind, a fanin or
output naming no existing output pin, an input that is not a Source or
names the Source of another input, a PTL receiver without a finite,
non-negative stripline length, a cycle);
``topo_order``, and with it every analysis, raises the first of them.
``validate`` reports those plus the design rules (phase range, nets going
forward by at most one phase, the fanout bound, no logic in idle phases),
which the analyses do not need.  The text serialization is versioned and
round-trips losslessly.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .gates import (
    N_INPUTS,
    N_OUTPUTS,
    GateKind,
    GateSpec,
    PhaseSlot,
)
from .units import located, read_text

NETLIST_FORMAT = "rqlnet 1"


def per_netlist(fn):
    """Memoize ``fn(netlist)`` for as long as the netlist lives.  Netlists
    are immutable by convention; ``replace_gates`` returns a new one.  Every
    caller gets the same result object and must not mutate it."""
    memo = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def cached(netlist):
        if netlist not in memo:
            memo[netlist] = fn(netlist)
        return memo[netlist]

    return cached


class Pin(NamedTuple):
    gid: int
    pin: int


@dataclass(frozen=True)
class Gate:
    gid: int
    spec: GateSpec
    fanin: tuple[Pin, ...]
    phase: int
    name: str
    region: str = "cla_core"
    ptl_um: float | None = None  # incoming stripline length, PtlReceiver only

    @property
    def kind(self) -> GateKind:
        return self.spec.kind

    @property
    def slot(self) -> PhaseSlot:
        return PhaseSlot(self.phase)


class Netlist:
    """Immutable-by-convention container of gates plus named I/O."""

    def __init__(
        self,
        gates: Iterable[Gate],
        inputs: dict[str, int],
        outputs: dict[str, Pin],
        width: int,
        total_phases: int,
        idle_phases: tuple[int, ...] = (),
        chip_mode: bool = False,
    ):
        self.gates = list(gates)
        self.inputs = dict(inputs)
        self.outputs = dict(outputs)
        self.width = width
        self.total_phases = total_phases
        self.idle_phases = tuple(idle_phases)
        self.chip_mode = chip_mode
        self._by_gid = {g.gid: g for g in self.gates}
        if len(self._by_gid) != len(self.gates):
            raise ValueError("duplicate gate ids")

    def __len__(self) -> int:
        return len(self.gates)

    def gate(self, gid: int) -> Gate:
        return self._by_gid[gid]

    def fanout_map(self) -> dict[Pin, list[tuple[int, int]]]:
        """Driver pin -> list of (consumer gid, input index)."""
        fo: dict[Pin, list[tuple[int, int]]] = {}
        for g in self.gates:
            for i, pin in enumerate(g.fanin):
                fo.setdefault(pin, []).append((g.gid, i))
        return fo

    def topo_order(self) -> list[int]:
        """Gate ids in topological order; raises the first of ``defects``
        as ``ValueError``."""
        if found := defects(self):
            raise ValueError(found[0])
        return self._kahn_order()

    @per_netlist
    def _kahn_order(self) -> list[int]:
        """Kahn's order over the fanins that name existing gates; it leaves
        out the gates on or behind a cycle."""
        indeg = dict.fromkeys(self._by_gid, 0)
        consumers: dict[int, list[int]] = {gid: [] for gid in self._by_gid}
        for g in self.gates:
            for pin in g.fanin:
                if (fed := consumers.get(pin.gid)) is not None:
                    indeg[g.gid] += 1
                    fed.append(g.gid)
        ready = sorted(gid for gid, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            gid = ready.pop()
            order.append(gid)
            for c in consumers[gid]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return order

    def replace_gates(self, gates: Iterable[Gate], outputs=None) -> "Netlist":
        return Netlist(
            gates,
            self.inputs,
            outputs if outputs is not None else self.outputs,
            self.width,
            self.total_phases,
            self.idle_phases,
            self.chip_mode,
        )

    # -- serialization ----------------------------------------------------

    def dumps(self) -> str:
        lines = [NETLIST_FORMAT]
        lines.append(f"width {self.width}")
        lines.append(f"phases {self.total_phases}")
        if self.idle_phases:
            lines.append("idle " + ",".join(str(p) for p in self.idle_phases))
        lines.append(f"chip_mode {int(self.chip_mode)}")
        lines.append(
            "inputs " + " ".join(f"{n}:{g}" for n, g in self.inputs.items())
        )
        lines.append(
            "outputs "
            + " ".join(f"{n}:{p.gid}.{p.pin}" for n, p in self.outputs.items())
        )
        for g in sorted(self.gates, key=lambda g: g.gid):
            fanin = ",".join(f"{p.gid}.{p.pin}" for p in g.fanin)
            rec = (
                f"gate {g.gid} {g.kind.value} phase={g.phase} name={g.name} "
                f"region={g.region} fanin={fanin or '-'} "
                f"jj={g.spec.jj_count} ic={g.spec.ic_avg_ua!r} "
                f"seq={g.spec.seq_depth}"
            )
            if g.ptl_um is not None:
                rec += f" ptl={g.ptl_um!r}"
            lines.append(rec)
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "Netlist":
        """Parse the text form; malformed input raises ``ValueError`` naming
        the 1-based line at fault."""
        lines = [
            (lineno, ln)
            for lineno, ln in enumerate(text.splitlines(), 1)
            if ln.strip()
        ]
        if not lines or lines[0][1].strip() != NETLIST_FORMAT:
            raise ValueError("not a rqlnet file (bad or missing header)")
        header: dict[str, tuple[int, str]] = {}
        gates: list[Gate] = []
        for lineno, ln in lines[1:]:
            key, _, rest = ln.partition(" ")
            if key != "gate":
                header[key] = (lineno, rest.strip())
                continue
            try:
                gates.append(_parse_gate(rest))
            except KeyError as exc:
                raise ValueError(
                    f"line {lineno}: bad gate record: missing {exc.args[0]}="
                ) from None
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad gate record: {exc}") from None

        def field(key, parse, default=None):
            if key not in header:
                if default is None:
                    raise ValueError(
                        f"line {lines[0][0]}: header has no {key!r} record"
                    )
                return parse(default)
            lineno, value = header[key]
            try:
                return parse(value)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad {key} record: {exc}") from None

        return cls(
            gates,
            field("inputs", _parse_inputs, ""),
            field("outputs", _parse_outputs, ""),
            field("width", int),
            field("phases", int),
            field("idle", _parse_idle, ""),
            field("chip_mode", lambda s: bool(int(s)), "0"),
        )

    @classmethod
    def load(cls, path) -> "Netlist":
        return located(f"{path}:", cls.loads, read_text(path, "netlist"))


def _parse_gate(rest: str) -> Gate:
    fields = rest.split()
    if len(fields) < 2:
        raise ValueError("expected an id and a kind")
    kv = dict(f.split("=", 1) for f in fields[2:])
    fanin = tuple(
        Pin(int(a), int(b))
        for a, b in (p.split(".") for p in kv["fanin"].split(",") if p != "-")
    )
    spec = GateSpec(
        GateKind(fields[1]), int(kv["jj"]), float(kv["ic"]), int(kv["seq"])
    )
    return Gate(
        int(fields[0]),
        spec,
        fanin,
        int(kv["phase"]),
        kv["name"],
        kv["region"],
        float(kv["ptl"]) if "ptl" in kv else None,
    )


def _parse_inputs(text: str) -> dict[str, int]:
    inputs = {}
    for tok in text.split():
        name, _, gid = tok.partition(":")
        inputs[name] = int(gid)
    return inputs


def _parse_outputs(text: str) -> dict[str, Pin]:
    outputs = {}
    for tok in text.split():
        name, _, pin = tok.partition(":")
        a, b = pin.split(".")
        outputs[name] = Pin(int(a), int(b))
    return outputs


def _parse_idle(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p != "")


@per_netlist
def defects(netlist: Netlist) -> list[str]:
    """Structural faults no analysis can run on; an empty list means every
    analysis accepts the netlist."""
    n_out = {g.gid: N_OUTPUTS[g.spec.kind] for g in netlist.gates}
    found: list[str] = []
    for g in netlist.gates:
        kind = g.spec.kind
        if len(g.fanin) != N_INPUTS[kind]:
            found.append(
                f"gate {g.gid} ({g.name}): {kind.value} arity {len(g.fanin)} "
                f"!= {N_INPUTS[kind]}"
            )
        for pin in g.fanin:
            if pin.gid not in n_out:
                found.append(
                    f"gate {g.gid} ({g.name}): dangling fanin {pin.gid}.{pin.pin}"
                )
            elif not 0 <= pin.pin < n_out[pin.gid]:
                found.append(
                    f"gate {g.gid} ({g.name}): fanin pin {pin.gid}.{pin.pin} "
                    f"is driven by no gate"
                )
        if kind is GateKind.PTL_RECEIVER:
            if g.ptl_um is None:
                found.append(
                    f"gate {g.gid} ({g.name}): PTL receiver lacks a length annotation"
                )
            elif not 0 <= g.ptl_um < math.inf:
                found.append(
                    f"gate {g.gid} ({g.name}): PTL receiver length "
                    f"ptl={g.ptl_um!r} is not finite and >= 0"
                )
    named: dict[int, str] = {}  # Source gid -> its first input name
    for name, gid in netlist.inputs.items():
        if gid not in n_out or netlist.gate(gid).kind is not GateKind.SOURCE:
            found.append(f"input {name}: not a Source gate")
        elif named.setdefault(gid, name) != name:
            found.append(f"input {name}: Source gate {gid} is already input {named[gid]}")
    for name, pin in netlist.outputs.items():
        if not 0 <= pin.pin < n_out.get(pin.gid, 0):
            found.append(
                f"output {name}: pin {pin.gid}.{pin.pin} is driven by no gate"
            )
    if len(netlist._kahn_order()) != len(netlist.gates):
        found.append("netlist contains a cycle")
    return found


def validate(netlist: Netlist, max_fanout: int = 4) -> list[str]:
    """``defects`` plus the design rules; an empty list means the netlist is
    clean.  The design rules: phases lie in range, a net goes from phase p
    to p or p+1, no pin drives more than ``max_fanout`` inputs, and idle
    phases hold only interconnect cells."""
    diags = list(defects(netlist))
    for g in netlist.gates:
        if not 0 <= g.phase < netlist.total_phases:
            diags.append(f"gate {g.gid} ({g.name}): phase {g.phase} out of range")
        if g.phase in netlist.idle_phases and g.kind in (
            GateKind.ANDOR,
            GateKind.ANOTB,
        ):
            diags.append(
                f"gate {g.gid} ({g.name}): logic gate in idle phase {g.phase}"
            )
        for pin in g.fanin:
            drv = netlist._by_gid.get(pin.gid)
            if drv is not None and not g.phase - 1 <= drv.phase <= g.phase:
                diags.append(
                    f"net {drv.gid}->{g.gid}: phase {drv.phase} -> {g.phase} "
                    f"violates phase monotonicity"
                )

    for pin, consumers in netlist.fanout_map().items():
        if len(consumers) > max_fanout:
            diags.append(
                f"pin {pin.gid}.{pin.pin}: fanout {len(consumers)} exceeds "
                f"{max_fanout}"
            )
    return diags


def missing_ports(netlist: Netlist) -> list[str]:
    """Adder ports absent from the I/O header: inputs ``A0..``, ``B0..`` and
    outputs ``S0..`` (``Cout`` is optional)."""
    bits = range(netlist.width)
    inputs = [f"{w}{i}" for w in "AB" for i in bits]
    return [p for p in inputs if p not in netlist.inputs] + [
        f"S{i}" for i in bits if f"S{i}" not in netlist.outputs
    ]


@dataclass
class NetlistStats:
    jj_total: int
    ic_sum_ua: float
    ic_avg_ua: float | None  # None for an empty netlist
    per_line_ic_ua: dict[str, float]
    per_region: dict[str, dict]  # region -> {jj, ic_ua, ic_fraction}
    gate_counts: dict[str, int] = field(default_factory=dict)


def netlist_stats(netlist: Netlist) -> NetlistStats:
    """Junction and critical-current totals, grouped by clock line (from the
    phase-to-I/Q mapping) and by region tag."""
    jj_total = 0
    ic_sum = 0.0
    per_line = {"I": 0.0, "Q": 0.0}
    per_region: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for g in netlist.gates:
        jj, ic = g.spec.jj_count, g.spec.jj_count * g.spec.ic_avg_ua
        jj_total += jj
        ic_sum += ic
        counts[g.kind.value] = counts.get(g.kind.value, 0) + 1
        if jj:
            per_line[g.slot.clock_line] += ic
        reg = per_region.setdefault(g.region, {"jj": 0, "ic_ua": 0.0})
        reg["jj"] += jj
        reg["ic_ua"] += ic
    for reg in per_region.values():
        reg["ic_fraction"] = reg["ic_ua"] / ic_sum if ic_sum else 0.0
    return NetlistStats(
        jj_total=jj_total,
        ic_sum_ua=ic_sum,
        ic_avg_ua=(ic_sum / jj_total) if jj_total else None,
        per_line_ic_ua=per_line,
        per_region=per_region,
        gate_counts=counts,
    )
