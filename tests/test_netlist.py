import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rqlsim import build_kogge_stone
from rqlsim.cli import main
from rqlsim.gates import DEFAULT_GATE_TABLE, GateKind
from rqlsim.netlist import Gate, Netlist, Pin, defects, netlist_stats, validate
from rqlsim.sim.encode import encode
from rqlsim.sim.timing import _path_envelope


def _gate(gid, kind, fanin, phase, name, ic=162.0, jj=None, region="cla_core"):
    spec = DEFAULT_GATE_TABLE[kind]
    if jj is not None or ic != spec.ic_avg_ua:
        from rqlsim.gates import GateSpec

        spec = GateSpec(
            kind,
            jj if jj is not None else spec.jj_count,
            ic,
            min(spec.seq_depth, jj) if jj is not None else spec.seq_depth,
        )
    return Gate(gid, spec, tuple(fanin), phase, name, region)


def _edit_first_gate(text, edit):
    """Apply ``edit`` to the first gate record; return the text and that
    record's 1-based line number."""
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("gate "))
    lines[k] = edit(lines[k])
    return "\n".join(lines) + "\n", k + 1


class TestValidate:
    def test_generated_netlist_is_clean(self, adder8):
        assert validate(adder8) == []

    def test_phase_monotonicity_diagnostic(self):
        # a net running backwards in phase
        gates = [
            _gate(0, GateKind.SOURCE, [], 0, "A0", ic=0.0),
            _gate(1, GateKind.DELAY, [Pin(0, 0)], 1, "d0"),
            _gate(2, GateKind.DELAY, [Pin(3, 0)], 1, "d1"),
            _gate(3, GateKind.DELAY, [Pin(1, 0)], 2, "d2"),
        ]
        nl = Netlist(gates, {"A0": 0}, {}, 1, 3)
        diags = validate(nl)
        assert any("monotonicity" in d for d in diags)

    def test_fanout_diagnostic(self):
        gates = [_gate(0, GateKind.SOURCE, [], 0, "A0", ic=0.0)]
        for k in range(5):
            gates.append(_gate(1 + k, GateKind.DELAY, [Pin(0, 0)], 1, f"d{k}"))
        nl = Netlist(gates, {"A0": 0}, {}, 1, 2)
        diags = validate(nl, max_fanout=4)
        assert any("fanout 5 exceeds 4" in d for d in diags)
        assert validate(nl, max_fanout=5) == []

    def test_arity_diagnostic(self):
        gates = [
            _gate(0, GateKind.SOURCE, [], 0, "A0", ic=0.0),
            _gate(1, GateKind.ANDOR, [Pin(0, 0)], 0, "bad"),
        ]
        nl = Netlist(gates, {"A0": 0}, {}, 1, 1)
        assert any("arity" in d for d in validate(nl))

    def test_cycle_diagnostic(self):
        gates = [
            _gate(0, GateKind.DELAY, [Pin(1, 0)], 0, "d0"),
            _gate(1, GateKind.DELAY, [Pin(0, 0)], 0, "d1"),
        ]
        nl = Netlist(gates, {}, {}, 1, 1)
        assert any("cycle" in d for d in validate(nl))

    def test_dangling_fanin_is_not_a_cycle(self):
        gates = [
            _gate(0, GateKind.SOURCE, [], 0, "A0", ic=0.0),
            _gate(1, GateKind.DELAY, [Pin(88888, 0)], 0, "d"),
        ]
        nl = Netlist(gates, {"A0": 0}, {}, 1, 1)
        diags = validate(nl)
        assert any("dangling fanin" in d for d in diags)
        assert not any("cycle" in d for d in diags)
        with pytest.raises(ValueError, match=r"gate 1 \(d\): dangling fanin 88888\.0"):
            nl.topo_order()

    def test_cycle_behind_a_dangling_fanin_is_reported(self):
        gates = [
            _gate(0, GateKind.DELAY, [Pin(1, 0)], 0, "d0"),
            _gate(1, GateKind.DELAY, [Pin(0, 0)], 0, "d1"),
            _gate(2, GateKind.DELAY, [Pin(88888, 0)], 0, "d2"),
        ]
        diags = validate(Netlist(gates, {}, {}, 1, 1))
        assert any("cycle" in d for d in diags)
        assert any("dangling fanin" in d for d in diags)

    def test_logic_in_idle_phase_diagnostic(self):
        gates = [
            _gate(0, GateKind.SOURCE, [], 0, "A0", ic=0.0),
            _gate(1, GateKind.SOURCE, [], 0, "B0", ic=0.0),
            _gate(2, GateKind.ANDOR, [Pin(0, 0), Pin(1, 0)], 1, "g"),
        ]
        nl = Netlist(gates, {"A0": 0, "B0": 1}, {}, 1, 2, idle_phases=(1,))
        assert any("idle" in d for d in validate(nl))


class TestSerialization:
    def test_round_trip_lossless(self, adder8):
        text = adder8.dumps()
        again = Netlist.loads(text)
        assert again.dumps() == text
        assert again.width == adder8.width
        assert again.total_phases == adder8.total_phases
        assert again.idle_phases == adder8.idle_phases
        assert again.inputs == adder8.inputs
        assert again.outputs == adder8.outputs

    def test_file_round_trip(self, tmp_path, adder8_chip):
        path = tmp_path / "adder.rqlnet"
        adder8_chip.save(path)
        again = Netlist.load(path)
        assert again.dumps() == adder8_chip.dumps()
        assert again.chip_mode

    def test_ptl_annotation_survives(self):
        from rqlsim import build_kogge_stone

        nl = build_kogge_stone(8, chip_mode=True, ptl_length_um=800.0)
        receivers = [
            g for g in nl.gates if g.kind is GateKind.PTL_RECEIVER
        ]
        assert len(receivers) == 3  # the three longest laterals
        again = Netlist.loads(nl.dumps())
        assert all(
            again.gate(r.gid).ptl_um == pytest.approx(800.0)
            for r in receivers
        )

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="rqlnet"):
            Netlist.loads("not a netlist\n")

    @pytest.mark.parametrize("key", ["fanin", "phase", "name", "region"])
    def test_missing_gate_key_names_the_line(self, adder8, key):
        text, lineno = _edit_first_gate(
            adder8.dumps(), lambda ln: re.sub(rf" {key}=\S+", "", ln)
        )
        with pytest.raises(ValueError, match=rf"^line {lineno}: .*missing {key}="):
            Netlist.loads(text)

    @pytest.mark.parametrize(
        "pattern, repl",
        [(r"phase=\d+", "phase=one"), (r"jj=\d+", "jj=1.5"), (r"^gate \d+", "gate x")],
        ids=["phase", "jj", "gid"],
    )
    def test_non_integer_gate_field_names_the_line(self, adder8, pattern, repl):
        text, lineno = _edit_first_gate(
            adder8.dumps(), lambda ln: re.sub(pattern, repl, ln)
        )
        with pytest.raises(ValueError, match=rf"^line {lineno}: bad gate record"):
            Netlist.loads(text)

    @pytest.mark.parametrize("key", ["width", "phases"])
    def test_missing_header_record(self, adder8, key):
        text = "\n".join(
            ln for ln in adder8.dumps().splitlines() if not ln.startswith(key + " ")
        )
        with pytest.raises(ValueError, match=rf"^line 1: header has no '{key}'"):
            Netlist.loads(text)

    def test_non_integer_header_names_the_line(self, adder8):
        text = adder8.dumps().replace("width 8\n", "width eight\n", 1)
        with pytest.raises(ValueError, match="^line 2: bad width record"):
            Netlist.loads(text)


# A valid 4-bit adder with striplines, so every record kind occurs, and the
# (line, field) positions of its space-separated fields after the header
# line; the wiring fields (fanin, ptl, named I/O) are drawn more often.
_VALID_LINES = build_kogge_stone(4, ptl_length_um=300.0).dumps().splitlines()
_POSITIONS = [
    (k, i) for k, ln in enumerate(_VALID_LINES) if k for i in range(len(ln.split(" ")))
]
_WIRING = [
    (k, i)
    for k, i in _POSITIONS
    if re.match(r"(fanin|ptl)=|\w+:", _VALID_LINES[k].split(" ")[i])
]
_PIN = st.builds("{}.{}".format, st.integers(-1, 64), st.integers(-1, 2))
_FIELD_VALUES = st.one_of(
    st.integers(-1, 64).map(str),
    _PIN,
    st.lists(_PIN, min_size=1, max_size=3).map(",".join),
    st.sampled_from(
        ["-1000.0", "0.0", "nan", "inf", "-"] + [k.value for k in GateKind]
    ),
    st.text(alphabet="0123456789.,:-=x", max_size=4),
)


@st.composite
def _mutant_text(draw):
    """The valid text with one field replaced: the part after its ``=`` or
    ``:`` if it has one, else all of it."""
    k, i = draw(st.one_of(st.sampled_from(_POSITIONS), st.sampled_from(_WIRING)))
    fields = _VALID_LINES[k].split(" ")
    key, sep, _ = fields[i].rpartition("=" if "=" in fields[i] else ":")
    fields[i] = key + sep + draw(_FIELD_VALUES)
    lines = list(_VALID_LINES)
    lines[k] = " ".join(fields)
    return "\n".join(lines) + "\n"


# One valid file of every other kind the CLI reads, and a command that reads
# it; NETLIST is the valid 4-bit netlist above.
_F_MOD = 6.2e9 / 24000  # the chop fundamental of sidebands' defaults
_SPECTRUM_DBM = {0: -2.0, -1: -71.3, 1: -71.3}  # carrier and first sidebands
_INPUT_FILES = {
    "gate-table": (
        "[AndOr]\njj_count = 10\nic_avg = 162\nseq_depth = 4\n[Split]\njj_count = 2\n",
        ["--config", "FILE", "gen", "--width", "4"],
    ),
    "scenario": (
        "[scenario]\nn_devices = 815\nic_avg = 162e-6\nfrequency = 10e9\n"
        "margin_frac = 0.1\nline_impedance = 50\nseq_junctions_per_phase = 8\n",
        ["power", "--scenario", "FILE"],
    ),
    "descriptor": (
        "[chop]\nf_clock = 6.2e9\nactive_len = 12000\nzero_len = 12000\n"
        "[line.Q]\np0_dbm = -2.0\nssb_db = -69.3\n"
        "[line.I]\napplied_dbm = -1.9\nreturned_dbm = -2.9\nssb_db = -79.3\n"
        "[regions]\ncla_core = 0.42\n",
        ["sidebands", "--measurements", "FILE"],
    ),
    "vectors": (
        "# A B\n1 2\nf,f\n0 0\n",
        ["sim", "--netlist", "NETLIST", "--vectors", "FILE", "--check"],
    ),
    "serial": (
        "0101100111010010\n",
        ["sim", "--netlist", "NETLIST", "--serial", "FILE", "--check"],
    ),
    "spectrum": (
        "frequency_hz,power_dbm\n"
        + "".join(
            f"{6.2e9 + k * _F_MOD:.3f},{_SPECTRUM_DBM.get(k, -120.0)}\n"
            for k in range(-3, 4)
        ),
        ["sidebands", "--spectrum-q", "FILE"],
    ),
}
_LINE_TOKENS = st.sampled_from(
    [b"", b"x", b"5%", b"-60", b"nan", b"1e400", b"8.5", b"0", b"1e300",
     b"[DEFAULT]", b"[chop]", b"[AndOr]", b"ssb_db = -60", b"jj_count = 3",
     b"1 2", b"0101", b" continued", b"\xff", b"\xc3"]
)


@st.composite
def _mutated_file(draw, text):
    """``text`` with one to three lines deleted, repeated, given a drawn
    value after their last ``=``, ``,`` or space, or a drawn line inserted
    before them; the tokens include non-UTF-8 bytes."""
    lines = text.encode().split(b"\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "repeat", "value", "insert"]))
        if op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "value":
            cut = max(lines[i].rfind(c) for c in b"=, ") + 1
            lines[i] = lines[i][:cut] + draw(_LINE_TOKENS)
        else:
            lines.insert(i, draw(_LINE_TOKENS))
    return b"\n".join(lines)


def _assert_clean_exit(argv, out):
    """``cli.main(argv)`` raises nothing and warns nothing (a warning would
    print to stderr); exit 1 only under ``--check`` or ``validate``; exit 2
    or 3 prints one ``rqlsim:`` line and no ``--out``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        code = main(["--out", str(out), *argv])
    assert [str(w.message) for w in warned] == []
    assert code in (0, 1, 2, 3)
    assert code != 1 or "--check" in argv or "validate" in argv
    if code >= 2:
        assert err.getvalue().startswith("rqlsim: ")
        assert err.getvalue().count("\n") == 1
        assert not out.exists()


class TestRulesUnderMutation:
    @settings(max_examples=200, deadline=None)
    @given(_mutant_text())
    def test_defects_decide_whether_analyses_run(self, text):
        try:
            nl = Netlist.loads(text)
        except ValueError:
            return
        assert Netlist.loads(nl.dumps()).dumps() == nl.dumps()
        try:
            encode(nl)
            _path_envelope(nl)
        except ValueError as exc:
            assert defects(nl) and str(exc) == defects(nl)[0]
        else:
            assert defects(nl) == []

    CLI_RUNS = [
        ["validate", "NETLIST"],
        ["sim", "--netlist", "NETLIST", "--exhaustive", "--check"],
        ["sim", "--netlist", "NETLIST", "--prbs", "0x1", "--cycles", "8", "--timed"],
        ["margins", "--netlist", "NETLIST", "--steps", "3"],
        ["power", "--netlist", "NETLIST", "--f", "10GHz"],
    ]

    @settings(max_examples=30, deadline=None)
    @given(_mutant_text())
    def test_cli_exits_cleanly_on_loaded_mutants(self, text):
        try:
            Netlist.loads(text)
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "mutant.rqlnet")
            path.write_text(text)
            for k, argv in enumerate(self.CLI_RUNS):
                argv = [str(path) if a == "NETLIST" else a for a in argv]
                _assert_clean_exit(argv, Path(tmp, f"out{k}"))

    @pytest.mark.parametrize("kind", sorted(_INPUT_FILES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_cli_exits_cleanly_on_mutated_input_files(self, kind, data):
        text, argv = _INPUT_FILES[kind]
        with tempfile.TemporaryDirectory() as tmp:
            netlist, path = Path(tmp, "valid.rqlnet"), Path(tmp, f"mutant.{kind}")
            netlist.write_text("\n".join(_VALID_LINES) + "\n")
            path.write_bytes(data.draw(_mutated_file(text)))
            files = {"NETLIST": str(netlist), "FILE": str(path)}
            _assert_clean_exit([files.get(a, a) for a in argv], Path(tmp, "out"))


class TestStats:
    def test_default_core_totals(self, adder8):
        st = netlist_stats(adder8)
        assert st.jj_total == 815
        assert st.ic_avg_ua == pytest.approx(162.0)
        assert st.per_region["cla_core"]["jj"] == 815
        assert st.per_region["io"]["jj"] == 0

    def test_per_line_sums_cover_total(self, adder8):
        st = netlist_stats(adder8)
        assert st.per_line_ic_ua["I"] + st.per_line_ic_ua["Q"] == pytest.approx(
            st.ic_sum_ua
        )

    def test_empty_netlist_flags_average(self):
        st = netlist_stats(Netlist([], {}, {}, 0, 1))
        assert st.jj_total == 0
        assert st.ic_avg_ua is None
        assert st.per_line_ic_ua == {"I": 0.0, "Q": 0.0}

    def test_synthetic_chip_attribution_fractions(self):
        # Ic split core 42% / amps 50% / shift register 8%, amps on Q.
        gates = []
        gid = 0

        def block(n, phase, region):
            nonlocal gid
            for _ in range(n):
                gates.append(
                    _gate(gid, GateKind.DELAY, [Pin(0, 0)], phase, f"g{gid}",
                          region=region)
                )
                gid += 1

        gates.append(_gate(0, GateKind.SOURCE, [], 0, "A0", ic=0.0))
        gid = 1
        block(42, 2, "cla_core")  # I line
        block(50, 1, "amps")  # Q line
        block(8, 2, "shift_register")
        nl = Netlist(gates, {"A0": 0}, {}, 1, 4)
        st = netlist_stats(nl)
        assert st.per_region["cla_core"]["ic_fraction"] == pytest.approx(0.42)
        assert st.per_region["amps"]["ic_fraction"] == pytest.approx(0.50)
        assert st.per_region["shift_register"]["ic_fraction"] == pytest.approx(0.08)
        assert st.per_line_ic_ua["Q"] / st.ic_sum_ua == pytest.approx(0.50)
