import json
import random
import re

import numpy as np
import pytest

from rqlsim import power
from rqlsim.cli import main
from rqlsim.gates import GateKind
from rqlsim.netlist import Netlist, Pin
from rqlsim.sim import InputProgram, Lfsr16, shift_register_pairs, simulate_logic


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(["--out", str(out), *argv]), out


def assert_usage_error(tmp_path, capsys, argv, message):
    """``argv`` exits 2 with one ``rqlsim:`` line holding ``message`` on
    stderr, and writes nothing: not even the ``--out`` directory."""
    code, out = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("rqlsim: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


class TestGen:
    def test_default_chip_report(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "gen", "--width", "8", "--idle", "1", "--clock", "10GHz"
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "phases 6" in text
        assert "cycles 1.5" in text
        assert "latency 150 ps" in text
        stats = json.loads((out / "gen_stats.json").read_text())
        assert stats["jj_total"] == 815
        assert (out / "adder8.rqlnet").exists()
        assert (out / "manifest.json").exists()

    def test_minimal_width(self, tmp_path):
        code, out = run(tmp_path, "gen", "--width", "2")
        assert code == 0
        stats = json.loads((out / "gen_stats.json").read_text())
        assert stats["phases"] == 4  # 3 logic stages + default idle

    def test_deterministic_outputs(self, tmp_path):
        _, out1 = run(tmp_path / "a", "gen", "--width", "8")
        _, out2 = run(tmp_path / "b", "gen", "--width", "8")
        assert (out1 / "adder8.rqlnet").read_bytes() == (
            out2 / "adder8.rqlnet"
        ).read_bytes()
        assert (out1 / "gen_stats.json").read_bytes() == (
            out2 / "gen_stats.json"
        ).read_bytes()

    def test_invalid_width_is_a_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "gen", "--width", "7")
        assert code == 2

    @pytest.mark.parametrize("length", ["-1000", "nan", "inf"])
    def test_bad_stripline_length_is_usage_error(self, tmp_path, capsys, length):
        code, out = run(
            tmp_path, "gen", "--width", "8", "--chip-mode", f"--ptl-um={length}"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "stripline length must be finite and >= 0" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_csv_format_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), "--format", "csv", "gen"])
        assert exc.value.code == 2

    def test_seed_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), "--seed", "1", "gen"])
        assert exc.value.code == 2
        _, out = run(tmp_path, "gen", "--width", "2")
        manifest = json.loads((out / "manifest.json").read_text())
        assert "seed" not in manifest
        assert "seed" not in manifest["arguments"]


@pytest.fixture(scope="module")
def netlist_file(tmp_path_factory):
    base = tmp_path_factory.mktemp("gen")
    code = main(["--out", str(base), "gen", "--width", "4"])
    assert code == 0
    return base / "adder4.rqlnet"


class TestValidateCmd:
    def test_clean(self, tmp_path, netlist_file, capsys):
        code, _ = run(tmp_path, "validate", str(netlist_file))
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupted_netlist_fails(self, tmp_path, netlist_file):
        bad = tmp_path / "bad.rqlnet"
        text = netlist_file.read_text().replace("phase=1", "phase=0", 1)
        bad.write_text(text)
        code, _ = run(tmp_path, "validate", str(bad))
        assert code == 1

    def test_missing_file_is_io_error(self, tmp_path):
        code, _ = run(tmp_path, "validate", str(tmp_path / "nope.rqlnet"))
        assert code == 3

    def test_malformed_record_is_usage_error(self, tmp_path, netlist_file, capsys):
        bad = tmp_path / "bad.rqlnet"
        lines = netlist_file.read_text().splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith("gate "))
        lines[k] = lines[k].split(" fanin=")[0]
        bad.write_text("\n".join(lines) + "\n")
        code, _ = run(tmp_path, "validate", str(bad))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rqlsim: {bad}: line {k + 1}: ")
        assert "Traceback" not in err


class TestSim:
    def test_exhaustive_check(self, tmp_path, netlist_file, capsys):
        code, out = run(
            tmp_path, "sim", "--netlist", str(netlist_file),
            "--exhaustive", "--check",
        )
        assert code == 0
        assert "256/256 pass" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["check_failures"] == 0
        assert (out / "trace.csv").exists()

    def test_serial_zeros(self, tmp_path, netlist_file):
        bits = tmp_path / "zeros.txt"
        bits.write_text("0" * 16 + "\n")
        code, out = run(
            tmp_path, "sim", "--netlist", str(netlist_file),
            "--serial", str(bits), "--check",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_events"] == 0

    def test_prbs_cyclic_permutations(self, tmp_path, netlist_file):
        code, out = run(
            tmp_path, "sim", "--netlist", str(netlist_file),
            "--prbs", "0xACE1", "--cycles", "16", "--check",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["vectors"] == 16
        assert summary["check_failures"] == 0

    def test_vectors_file(self, tmp_path, netlist_file):
        vf = tmp_path / "vecs.txt"
        vf.write_text("1 2\nf f\n# comment\n3,4\n")
        code, out = run(
            tmp_path, "sim", "--netlist", str(netlist_file),
            "--vectors", str(vf), "--check",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["vectors"] == 3

    def test_timed_mode_reports_violations(self, tmp_path, netlist_file):
        code, out = run(
            tmp_path, "sim", "--netlist", str(netlist_file),
            "--prbs", "0xACE1", "--cycles", "8", "--timed",
            "--clock", "14GHz",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"]

    def test_no_stimulus_is_usage_error(self, tmp_path, netlist_file):
        code, _ = run(tmp_path, "sim", "--netlist", str(netlist_file))
        assert code == 2

    @pytest.mark.parametrize("line", ["3 4 5", "3 zz", "-3 4"])
    def test_malformed_vectors_line_names_file_and_line(
        self, tmp_path, netlist_file, capsys, line
    ):
        vf = tmp_path / "vecs.txt"
        vf.write_text(f"1 2\n{line}\n")
        code, _ = run(
            tmp_path, "sim", "--netlist", str(netlist_file),
            "--vectors", str(vf),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{vf}, line 2:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("width", [4, 64])
    def test_check_counts_sum_and_carry_mismatches(self, tmp_path, width):
        # With the S0 and Cout pins swapped, a vector whose sum bit 0
        # differs from its carry fails twice: once per output.
        code, gen = run(tmp_path, "gen", "--width", str(width))
        assert code == 0
        text = (gen / f"adder{width}.rqlnet").read_text()
        s0 = re.search(r" S0:(\S+)", text).group(1)
        cout = re.search(r" Cout:(\S+)", text).group(1)
        swapped = text.replace(f" S0:{s0}", f" S0:{cout}", 1)
        swapped = swapped.replace(f" Cout:{cout}", f" Cout:{s0}", 1)
        bad = tmp_path / "swapped.rqlnet"
        bad.write_text(swapped)
        code, out = run(
            tmp_path, "sim", "--netlist", str(bad),
            "--prbs", "0xACE1", "--cycles", "300", "--check",
        )
        assert code == 1
        rows = (out / "trace.csv").read_text().splitlines()[1:301]
        totals = [
            int(a, 16) + int(b, 16) for a, b in (r.split(",")[1:3] for r in rows)
        ]
        want = 2 * sum((t & 1) != (t >> width) for t in totals)
        assert want > 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["check_failures"] == want

    @pytest.mark.parametrize("line", ["1ffffffffffffffffff 0", "3 10"])
    def test_operand_wider_than_netlist_names_file_and_line(
        self, tmp_path, netlist_file, capsys, line
    ):
        vf = tmp_path / "vecs.txt"
        vf.write_text(f"# 4-bit operands\n1 2\n{line}\n")
        code, _ = run(
            tmp_path, "sim", "--netlist", str(netlist_file),
            "--vectors", str(vf), "--check",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{vf}, line 3:" in err and "4-bit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cycles", ["0", "-5"])
    def test_non_positive_cycles_is_usage_error(
        self, tmp_path, netlist_file, capsys, cycles
    ):
        code, _ = run(
            tmp_path, "sim", "--netlist", str(netlist_file),
            "--prbs", "0xACE1", "--cycles", cycles,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"--cycles must be positive, got {cycles}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("stimulus", ["--exhaustive", "--vectors", "--serial"])
    def test_cycles_without_prbs_is_usage_error(
        self, tmp_path, netlist_file, capsys, stimulus
    ):
        argv = [stimulus]
        if stimulus != "--exhaustive":
            src = tmp_path / "stimulus.txt"
            src.write_text("1 2\n" if stimulus == "--vectors" else "0101\n")
            argv.append(str(src))
        code, out = run(
            tmp_path, "sim", "--netlist", str(netlist_file), *argv,
            "--cycles", "5", "--check",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--cycles applies only to --prbs" in err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "other",
        [["--vectors", "VECTORS"], ["--prbs", "0x1", "--cycles", "5"]],
        ids=["vectors", "prbs"],
    )
    def test_stimulus_options_are_exclusive(
        self, tmp_path, netlist_file, capsys, other
    ):
        vf = tmp_path / "vecs.txt"
        vf.write_text("1 2\n")
        other = [str(vf) if arg == "VECTORS" else arg for arg in other]
        with pytest.raises(SystemExit) as exc:
            run(
                tmp_path, "sim", "--netlist", str(netlist_file), "--exhaustive",
                *other, "--check",
            )
        assert exc.value.code == 2
        assert "not allowed with argument --exhaustive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bias", ["nan", "inf"])
    def test_non_finite_bias_is_usage_error(
        self, tmp_path, netlist_file, capsys, bias
    ):
        code, _ = run(
            tmp_path, "sim", "--netlist", str(netlist_file), "--prbs", "0xACE1",
            "--timed", "--clock", "14GHz", f"--bias={bias}",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "clock bias must be positive and finite" in err
        assert "Traceback" not in err

    def test_omitted_cycles_stays_null_in_manifest(self, tmp_path, netlist_file):
        code, out = run(
            tmp_path, "sim", "--netlist", str(netlist_file), "--prbs", "0xACE1",
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["arguments"]["cycles"] is None
        summary = json.loads((out / "summary.json").read_text())
        assert summary["vectors"] == 64

    @pytest.mark.parametrize("header, port", [("outputs", "S3"), ("inputs", "A2")])
    def test_missing_port_is_reported(
        self, tmp_path, netlist_file, capsys, header, port
    ):
        bad = tmp_path / "bad.rqlnet"
        text = netlist_file.read_text()
        bad.write_text(
            re.sub(rf"^({header} .*?) {port}:\S+", r"\1", text, count=1, flags=re.M)
        )
        code, _ = run(
            tmp_path, "sim", "--netlist", str(bad), "--exhaustive", "--check",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert port in err and "Traceback" not in err
        code, _ = run(tmp_path, "validate", str(bad))
        assert code == 1
        assert f"port {port}: missing" in capsys.readouterr().out

    def test_dangling_output_pin_is_usage_error(
        self, tmp_path, netlist_file, capsys
    ):
        bad = tmp_path / "bad.rqlnet"
        text = netlist_file.read_text()
        bad.write_text(re.sub(r"S0:\d+\.\d+", "S0:99999.0", text, count=1))
        code, _ = run(
            tmp_path, "sim", "--netlist", str(bad), "--exhaustive",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "output S0" in err and "99999.0" in err
        assert "Traceback" not in err

    def test_missing_fanin_pin_is_usage_error(
        self, tmp_path, netlist_file, capsys
    ):
        bad = tmp_path / "bad.rqlnet"
        text = netlist_file.read_text()
        bad.write_text(re.sub(r"fanin=(\d+)\.0", r"fanin=\1.7", text, count=1))
        code, _ = run(
            tmp_path, "sim", "--netlist", str(bad), "--exhaustive",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert ".7 is driven by no gate" in err
        assert "Traceback" not in err

    def test_wrong_fanin_count_is_usage_error(
        self, tmp_path, netlist_file, capsys
    ):
        bad = tmp_path / "bad.rqlnet"
        text = netlist_file.read_text()
        m = re.search(r"^gate (\d+) AndOr .*?fanin=(\d+\.\d+),\S+", text, re.M)
        bad.write_text(text.replace(m.group(0), m.group(0).split(",")[0], 1))
        code, _ = run(
            tmp_path, "sim", "--netlist", str(bad), "--exhaustive",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"gate {m.group(1)} (" in err and "AndOr arity 1 != 2" in err
        assert "Traceback" not in err

    def test_dangling_fanin_is_not_called_a_cycle(
        self, tmp_path, netlist_file, capsys
    ):
        bad = tmp_path / "bad.rqlnet"
        text = netlist_file.read_text()
        bad.write_text(re.sub(r"fanin=\d+\.", "fanin=88888.", text, count=1))
        code, _ = run(
            tmp_path, "sim", "--netlist", str(bad), "--exhaustive",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "dangling fanin 88888.0" in err
        assert "cycle" not in err
        code, _ = run(tmp_path, "validate", str(bad))
        assert code == 1
        out = capsys.readouterr().out
        assert "dangling fanin" in out
        assert "cycle" not in out


class TestSimStimulusInput:
    """Refused ``--prbs`` seeds and ``--serial`` files."""

    @pytest.mark.parametrize("seed", ["1", "0xFFFF", "65535", "0o17"])
    def test_seed_in_range_runs(self, tmp_path, netlist_file, seed):
        code, out = run(
            tmp_path, "sim", "--netlist", str(netlist_file),
            "--prbs", seed, "--cycles", "4", "--check",
        )
        assert code == 0
        assert (out / "trace.csv").exists()

    @pytest.mark.parametrize(
        "seed", ["-5", "0x1ACE1", "0x10000", "0", "zz", "1.5", ""]
    )
    def test_seed_outside_range_is_usage_error(
        self, tmp_path, netlist_file, capsys, seed
    ):
        assert_usage_error(
            tmp_path, capsys,
            ["sim", "--netlist", str(netlist_file), "--prbs", seed, "--cycles", "4"],
            f"--prbs takes an LFSR seed in 1..0xFFFF (e.g. 0xACE1), got {seed!r}",
        )

    def test_non_utf8_serial_file_names_the_path(
        self, tmp_path, netlist_file, capsys
    ):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0101010101\xff010101\n")
        assert_usage_error(
            tmp_path, capsys,
            ["sim", "--netlist", str(netlist_file), "--serial", str(path)],
            f"{path}: not a UTF-8 bit-string file (byte 0xff at offset 10)",
        )

    @pytest.mark.parametrize("text", ["", "\n", "0101 2\n", "01\u00e901\n"])
    def test_bad_serial_file_is_usage_error(
        self, tmp_path, netlist_file, capsys, text
    ):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        assert_usage_error(
            tmp_path, capsys,
            ["sim", "--netlist", str(netlist_file), "--serial", str(path)],
            f"{path}: expected a bit-string file",
        )

    def test_serial_stream_shorter_than_register_is_usage_error(
        self, tmp_path, netlist_file, capsys
    ):
        path = tmp_path / "short.txt"
        path.write_text("0101\n")
        assert_usage_error(
            tmp_path, capsys,
            ["sim", "--netlist", str(netlist_file), "--serial", str(path)],
            f"{path}: --serial stream holds 4 bits; the 4-bit netlist's "
            "8-stage shift register needs at least 8",
        )


def per_bit_register_pairs(bits, width):
    """The operands of a 2*width-stage shift register fed one bit per cycle,
    as a list of (A, B); register[k] holds the bit received k cycles ago."""
    register = [0] * (2 * width)
    pairs = []
    for bit in bits:
        register = [int(bit) & 1, *register[:-1]]
        a = sum(register[i] << i for i in range(width))
        b = sum(register[2 * width - 1 - i] << i for i in range(width))
        pairs.append((a, b))
    return pairs


def per_bit_prbs(n_bits, seed):
    lfsr = Lfsr16(seed)
    return [lfsr.next_bit() for _ in range(n_bits)]


@pytest.fixture(scope="module")
def adder_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("gen-harness")
    for width in (8, 64):
        assert main(["--out", str(base), "gen", "--width", str(width)]) == 0
    return {width: base / f"adder{width}.rqlnet" for width in (8, 64)}


class TestHarnessByteIdentity:
    """Every harness flow writes the bytes that operands from a per-bit
    LFSR and a per-cycle shift register give, fed in as ``--vectors``."""

    @staticmethod
    def outputs(out):
        return [(out / name).read_bytes() for name in ("trace.csv", "summary.json")]

    def oracle_outputs(self, tmp_path, netlist, pairs):
        vf = tmp_path / "oracle_vectors.txt"
        vf.write_text("".join(f"{a:x} {b:x}\n" for a, b in pairs))
        code, out = run(
            tmp_path / "oracle", "sim", "--netlist", str(netlist),
            "--vectors", str(vf), "--check",
        )
        assert code == 0
        return self.outputs(out)

    @pytest.mark.parametrize(
        "width, seed, cycles",
        [(8, "0xACE1", 300), (8, "0x1", 40), (64, "0xACE1", 200), (64, "0xFFFF", 70)],
    )
    def test_prbs(self, tmp_path, adder_files, width, seed, cycles):
        code, out = run(
            tmp_path / "prbs", "sim", "--netlist", str(adder_files[width]),
            "--prbs", seed, "--cycles", str(cycles), "--check",
        )
        assert code == 0
        bits = per_bit_prbs(cycles + 2 * width - 1, int(seed, 16))
        pairs = per_bit_register_pairs(bits, width)[-cycles:]
        assert self.outputs(out) == self.oracle_outputs(
            tmp_path, adder_files[width], pairs
        )

    @pytest.mark.parametrize("width", [8, 64])
    def test_serial(self, tmp_path, adder_files, width):
        rng = random.Random(width)
        bits = [rng.getrandbits(1) for _ in range(3 * width + 37)]
        path = tmp_path / "bits.txt"
        text = "".join(map(str, bits))
        path.write_text(" ".join(text[i : i + 8] for i in range(0, len(text), 8)))
        code, out = run(
            tmp_path / "serial", "sim", "--netlist", str(adder_files[width]),
            "--serial", str(path), "--check",
        )
        assert code == 0
        assert self.outputs(out) == self.oracle_outputs(
            tmp_path, adder_files[width], per_bit_register_pairs(bits, width)
        )

    def test_chopped_through_simulate_logic(self, tmp_path, adder_files):
        netlist = Netlist.load(adder_files[8])
        n_blocks, active, zero, seed = 4, 120, 56, 0xACE1
        prog = InputProgram.chopped(n_blocks, active, zero, seed=seed)
        lfsr = Lfsr16(seed)
        bits = []
        for _ in range(n_blocks):
            bits += [lfsr.next_bit() for _ in range(active)] + [0] * zero
        a, b = zip(*per_bit_register_pairs(bits, 8))
        want = simulate_logic(
            netlist, (np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64))
        )
        got = simulate_logic(netlist, shift_register_pairs(prog.serial_bits, 8))
        want.to_csv(tmp_path / "want.csv")
        got.to_csv(tmp_path / "got.csv")
        assert got.total_events == want.total_events > 0
        assert (tmp_path / "got.csv").read_bytes() == (
            tmp_path / "want.csv"
        ).read_bytes()


@pytest.fixture(scope="module")
def ptl_netlist_file(tmp_path_factory):
    """A 4-bit adder whose idle-phase laterals ride striplines."""
    base = tmp_path_factory.mktemp("gen_ptl")
    code = main(["--out", str(base), "gen", "--width", "4", "--ptl-um", "300"])
    assert code == 0
    return base / "adder4.rqlnet"


def _set_fanin(text, gid, fanin):
    return re.sub(
        rf"^(gate {gid} .*? fanin=)\S+", rf"\g<1>{fanin}", text, count=1, flags=re.M
    )


def _pins(pins):
    return ",".join(f"{p.gid}.{p.pin}" for p in pins)


def _first(nl, kind):
    return next(g for g in nl.gates if g.kind is kind)


# Each mutation takes the text and its parsed netlist, and returns the
# mutated text and the defect every command must name.
def _dangling_fanin(text, nl):
    bad = re.sub(r"fanin=\d+\.", "fanin=88888.", text, count=1)
    return bad, "dangling fanin 88888.0"


def _fanin_pin(text, nl):
    bad = re.sub(r"fanin=(\d+)\.0", r"fanin=\1.7", text, count=1)
    return bad, ".7 is driven by no gate"


def _arity(text, nl):
    g = _first(nl, GateKind.ANDOR)
    return (
        _set_fanin(text, g.gid, _pins(g.fanin[:1])),
        f"gate {g.gid} ({g.name}): AndOr arity 1 != 2",
    )


def _cycle(text, nl):
    """Feed an AndOr that drives another AndOr back from its consumer."""
    g = next(
        g for g in nl.gates
        if g.kind is GateKind.ANDOR
        and any(nl.gate(p.gid).kind is GateKind.ANDOR for p in g.fanin)
    )
    h = nl.gate(next(p.gid for p in g.fanin if nl.gate(p.gid).kind is GateKind.ANDOR))
    fanin = _pins((Pin(g.gid, 0),) + h.fanin[1:])
    return _set_fanin(text, h.gid, fanin), "netlist contains a cycle"


def _input_not_source(text, nl):
    gid = _first(nl, GateKind.ANDOR).gid
    bad = re.sub(r" A0:\d+", f" A0:{gid}", text, count=1)
    return bad, "input A0: not a Source gate"


def _shared_source(text, nl):
    gid = nl.inputs["A0"]
    bad = re.sub(r" A1:\d+", f" A1:{gid}", text, count=1)
    return bad, f"input A1: Source gate {gid} is already input A0"


def _output_pin(text, nl):
    gid = nl.outputs["S0"].gid
    return (
        re.sub(r" S0:\d+\.\d+", f" S0:{gid}.7", text, count=1),
        f"output S0: pin {gid}.7 is driven by no gate",
    )


def _ptl_missing(text, nl):
    g = _first(nl, GateKind.PTL_RECEIVER)
    return (
        re.sub(r" ptl=\S+", "", text, count=1),
        f"gate {g.gid} ({g.name}): PTL receiver lacks a length annotation",
    )


def _ptl_negative(text, nl):
    g = _first(nl, GateKind.PTL_RECEIVER)
    return (
        re.sub(r" ptl=\S+", " ptl=-1000.0", text, count=1),
        f"gate {g.gid} ({g.name}): PTL receiver length ptl=-1000.0 is not finite "
        f"and >= 0",
    )


NETLIST_MUTATIONS = [
    _dangling_fanin, _fanin_pin, _arity, _cycle, _input_not_source, _shared_source,
    _output_pin, _ptl_missing, _ptl_negative,
]


class TestNetlistRules:
    """``validate`` and every analysis refuse the same structural defects,
    in the same words; a design rule stays ``validate``'s alone."""

    ANALYSES = [
        ["sim", "--exhaustive"],
        ["sim", "--prbs", "0x1", "--timed"],
        ["margins"],
    ]

    def _analyse(self, tmp_path, path, capsys):
        for k, cmd in enumerate(self.ANALYSES):
            code, _ = run(tmp_path / str(k), cmd[0], "--netlist", str(path), *cmd[1:])
            yield code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate", NETLIST_MUTATIONS, ids=lambda f: f.__name__.lstrip("_")
    )
    def test_defect_is_refused_by_every_command(
        self, tmp_path, ptl_netlist_file, capsys, mutate
    ):
        text = ptl_netlist_file.read_text()
        bad_text, defect = mutate(text, Netlist.loads(text))
        assert bad_text != text
        bad = tmp_path / "bad.rqlnet"
        bad.write_text(bad_text)

        code, _ = run(tmp_path, "validate", str(bad))
        assert code == 1
        reported = capsys.readouterr().out.splitlines()
        assert any(defect in line for line in reported)

        for code, err in self._analyse(tmp_path, bad, capsys):
            assert code == 2
            assert defect in err and "Traceback" not in err
            assert err.removeprefix("rqlsim: ").rstrip("\n") in reported

    def test_design_rule_is_validate_only(self, tmp_path, ptl_netlist_file, capsys):
        bad = tmp_path / "bad.rqlnet"
        bad.write_text(ptl_netlist_file.read_text().replace("phase=1", "phase=0", 1))
        code, _ = run(tmp_path, "validate", str(bad))
        assert code == 1
        assert "monotonicity" in capsys.readouterr().out
        for code, err in self._analyse(tmp_path, bad, capsys):
            assert code == 0 and err == ""


class TestMargins:
    def test_sweep_csv(self, tmp_path, netlist_file):
        code, out = run(
            tmp_path, "margins", "--netlist", str(netlist_file),
            "--fmin", "4GHz", "--fmax", "16GHz", "--steps", "7",
        )
        assert code == 0
        lines = (out / "margins.csv").read_text().splitlines()
        assert len(lines) == 8
        uppers = {ln.split(",")[2] for ln in lines[1:]}
        assert len(uppers) == 1  # ceiling independent of frequency
        widths = [float(ln.split(",")[3]) for ln in lines[1:]]
        assert all(a >= b - 1e-9 for a, b in zip(widths, widths[1:]))


    def test_calibration_where_stripline_nearly_fills_the_window(
        self, tmp_path, capsys
    ):
        code, gen = run(
            tmp_path / "gen", "gen", "--width", "8", "--chip-mode",
            "--ptl-um", "1000",
        )
        assert code == 0
        code, out = run(
            tmp_path, "margins", "--netlist", str(gen / "adder8.rqlnet"),
            "--calibrate", "--calibrate-at", "24.99GHz",
        )
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["ceiling"] > 1e3

    @pytest.mark.parametrize("ceiling", ["0", "-1", "nan"])
    def test_bad_ceiling_is_usage_error(
        self, tmp_path, netlist_file, capsys, ceiling
    ):
        code, out = run(
            tmp_path, "margins", "--netlist", str(netlist_file),
            f"--ceiling={ceiling}",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "ceiling must be > 0" in err
        assert "Traceback" not in err
        assert not (out / "margins.csv").exists()

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_steps_below_one_is_usage_error(
        self, tmp_path, netlist_file, capsys, steps
    ):
        assert_usage_error(
            tmp_path, capsys,
            ["margins", "--netlist", str(netlist_file), "--steps", steps],
            f"--steps must be at least 1, got {steps}",
        )


class TestPowerCmd:
    def test_core_power(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "power", "--n", "815", "--ic", "162e-6", "--f", "6.21e9"
        )
        assert code == 0
        payload = json.loads((out / "power.json").read_text())
        assert abs(payload["p_dynamic_w"] - 560e-9) / 560e-9 < 0.01
        assert "560 nW" in capsys.readouterr().out

    def test_budget(self, tmp_path):
        code, out = run(
            tmp_path, "power", "--n", "2e6", "--ic", "100e-6", "--f", "10GHz",
            "--budget",
        )
        assert code == 0
        payload = json.loads((out / "power.json").read_text())
        assert abs(payload["budget"]["line_current_a"] - 9e-3) / 9e-3 < 0.02

    def test_netlist_source(self, tmp_path, netlist_file):
        code, out = run(
            tmp_path, "power", "--netlist", str(netlist_file), "--f", "10GHz"
        )
        assert code == 0

    def test_missing_parameters(self, tmp_path):
        code, _ = run(tmp_path, "power", "--n", "815", "--f", "1GHz")
        assert code == 2

    @pytest.mark.parametrize("ic", ["nan", "inf", "0.0"])
    def test_bad_critical_current_names_the_line(
        self, tmp_path, netlist_file, capsys, ic
    ):
        text = netlist_file.read_text()
        bad_text = re.sub(r"^(gate \d+ AndOr .*? ic=)\S+", rf"\g<1>{ic}", text,
                          count=1, flags=re.M)
        assert bad_text != text
        lineno = next(
            k for k, (a, b) in enumerate(zip(text.splitlines(), bad_text.splitlines()), 1)
            if a != b
        )
        bad = tmp_path / "bad.rqlnet"
        bad.write_text(bad_text)
        for argv in (["validate", str(bad)],
                     ["power", "--netlist", str(bad), "--f", "10GHz"]):
            code, _ = run(tmp_path, *argv)
            assert code == 2
            err = capsys.readouterr().err
            assert f"line {lineno}: bad gate record: AndOr: ic_avg must be positive" in err
            assert "Traceback" not in err


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "inf", "--ic", "162e-6", "--f", "1GHz"],
             "n_junctions must be finite and >= 0, got inf"),
            (["--n", "815", "--ic", "nan", "--f", "1GHz"],
             "ic_avg_a must be finite and >= 0, got nan"),
            (["--n", "815", "--ic", "162e-6", "--f", "1GHz", "--budget", "--z", "nan"],
             "line_impedance_ohm must be finite and > 0, got nan"),
        ],
        ids=["n-inf", "ic-nan", "z-nan"],
    )
    def test_non_finite_argument_is_named(self, tmp_path, capsys, argv, message):
        assert_usage_error(tmp_path, capsys, ["power", *argv], message)

    def test_overflowing_power_prints_inf(self, tmp_path, capsys):
        code, _ = run(
            tmp_path, "power", "--n", "1e308", "--ic", "1e308", "--f", "1GHz"
        )
        assert code == 0
        assert "= inf W" in capsys.readouterr().out


class TestSidebandsCmd:
    def test_measurement_chain(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "sidebands", "--q", "-69.3", "--i", "-79.3",
            "--p0q", "-2.0", "--p0i", "-2.4",
            "--fraction", "0.5", "--cla-frac", "0.42",
        )
        assert code == 0
        payload = json.loads((out / "sidebands.json").read_text())
        q = payload["per_line_w"]["Q"]
        i = payload["per_line_w"]["I"]
        assert abs(q - 970e-9) / 970e-9 < 0.02
        assert abs(i - 280e-9) / 280e-9 < 0.02
        assert abs(payload["p_total_w"] - 1.25e-6) / 1.25e-6 < 0.02
        cla = payload["per_region_w"]["cla_core"]
        assert abs(cla - 510e-9) / 510e-9 < 0.05

    def test_descriptor_file(self, tmp_path):
        meas = tmp_path / "meas.ini"
        meas.write_text(
            "[chop]\nf_clock = 6.2e9\nactive_len = 12000\nzero_len = 12000\n"
            "[line.Q]\np0_dbm = -2.0\nssb_db = -69.3\n"
        )
        code, out = run(tmp_path, "sidebands", "--measurements", str(meas))
        assert code == 0


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--q", "nan", "--p0q", "-2.0"], "SSB ratio must be negative"),
            (["--q", "-69.3", "--p0q", "nan"], "carrier power must be finite"),
            (["--q", "-69.3", "--p0q", "5000"], "within +/-1000 dBm, got 5000.0"),
            (["--q", "-69.3"], "or --q/--i with --p0q/--p0i"),
        ],
        ids=["q-nan", "p0q-nan", "p0q-overflow", "p0-missing"],
    )
    def test_bad_line_is_usage_error(self, tmp_path, capsys, argv, message):
        other = ["--i", "-79.3", "--p0i", "-2.4"]
        assert_usage_error(tmp_path, capsys, ["sidebands", *argv, *other], message)

    @pytest.mark.parametrize("chop", ["12000", "a:b", "0:5", "-5:3"])
    def test_bad_chop_is_usage_error(self, tmp_path, capsys, chop):
        lines = ["--q", "-69.3", "--i", "-79.3", "--p0q", "-2.0", "--p0i", "-2.4"]
        assert_usage_error(
            tmp_path, capsys, ["sidebands", *lines, f"--chop={chop}"],
            "--chop takes ACTIVE:ZERO cycle counts (e.g. 12000:12000), "
            f"got {chop!r}",
        )


class TestClocknetCmd:
    def test_band_meets_target(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "clocknet", "--sections", "6", "--zs", "50", "--zl", "4",
            "--f0", "7.5GHz", "--sweep", "1:20GHz", "--rl-target", "27",
        )
        assert code == 0
        assert (out / "transformer.csv").exists()
        assert (out / "sparams.csv").exists()
        text = capsys.readouterr().out
        assert "return loss" in text

    def test_json_format(self, tmp_path, capsys):
        code = main(
            [
                "--out", str(tmp_path / "o"), "--format", "json",
                "clocknet", "--sweep", "5:10GHz", "--rl-target", "27",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        band = payload["band_meeting_target_hz"]
        assert band[0] <= 5.1e9 and band[1] >= 9.9e9


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--ripple", "nan"], "ripple must be negative dB, got nan"),
            (["--zs", "nan"], "got nan and 4.0"),
            (["--zl", "inf"], "got 50.0 and inf"),
        ],
        ids=["ripple-nan", "zs-nan", "zl-inf"],
    )
    def test_non_finite_design_is_usage_error(self, tmp_path, capsys, argv, message):
        assert_usage_error(tmp_path, capsys, ["clocknet", *argv], message)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--sections", "200"], "200 chebyshev sections cannot be synthesized"),
            (["--kind", "binomial", "--sections", "2000"],
             "2000 binomial sections cannot be synthesized"),
            (["--points", "0"], "--points must be at least 1, got 0"),
            (["--points", "-3"], "--points must be at least 1, got -3"),
        ],
        ids=["sections-200", "binomial-2000", "points-0", "points-negative"],
    )
    def test_unbuildable_design_or_empty_sweep_is_usage_error(
        self, tmp_path, capsys, argv, message
    ):
        # One "rqlsim:" line on stderr, so no traceback, and no --out.
        assert_usage_error(tmp_path, capsys, ["clocknet", *argv], message)


class TestScenarioAndSpectrumInputs:
    def test_power_scenario_file(self, tmp_path):
        scen = tmp_path / "vlsi.ini"
        scen.write_text(
            "[scenario]\nn_devices = 2e6\nic_avg = 100e-6\nfrequency = 10e9\n"
        )
        code, out = run(tmp_path, "power", "--scenario", str(scen))
        assert code == 0
        payload = json.loads((out / "power.json").read_text())
        assert abs(payload["budget"]["p_applied_w"] - 4e-3) / 4e-3 < 0.05

    def test_sidebands_spectrum_files(self, tmp_path):
        f_c, f_m = 6.2e9, 6.2e9 / 24000

        def spectrum(path, p0, ssb):
            rows = []
            for k in range(-8, 9):
                f = f_c + k * f_m
                p = p0 if k == 0 else (p0 + ssb if abs(k) == 1 else -120.0)
                rows.append(f"{f:.3f},{p:.3f}")
            path.write_text("\n".join(rows) + "\n")

        sq = tmp_path / "q.csv"
        si = tmp_path / "i.csv"
        spectrum(sq, -2.0, -69.3)
        spectrum(si, -2.4, -79.3)
        code, out = run(
            tmp_path, "sidebands", "--spectrum-q", str(sq),
            "--spectrum-i", str(si),
        )
        assert code == 0
        payload = json.loads((out / "sidebands.json").read_text())
        assert abs(payload["p_total_w"] - 1.25e-6) / 1.25e-6 < 0.02

    @pytest.mark.parametrize("seq, spread", [(8, 4.85), (24, 14.55)])
    def test_scenario_sets_the_timing_spread(self, tmp_path, capsys, seq, spread):
        scen = tmp_path / "vlsi.ini"
        scen.write_text(
            "[scenario]\nn_devices = 2e6\nic_avg = 100e-6\nfrequency = 10e9\n"
            f"seq_junctions_per_phase = {seq}\n"
        )
        code, out = run(tmp_path, "power", "--scenario", str(scen))
        assert code == 0
        assert f"timing spread        {spread:.2f} ps" in capsys.readouterr().out
        budget = json.loads((out / "power.json").read_text())["budget"]
        assert budget["timing_spread_ps"] == pytest.approx(
            power.timing_spread_ps(0.10, 8) * seq / 8
        )


# One valid file of each INI kind, and the command that reads it.
_SCENARIO = "[scenario]\nn_devices = 815\nic_avg = 162e-6\nfrequency = 10e9\n"
_DESCRIPTOR = (
    "[chop]\nf_clock = 6.2e9\nactive_len = 12000\nzero_len = 12000\n"
    "[line.Q]\np0_dbm = -2.0\nssb_db = -69.3\n[regions]\ncla_core = 0.42\n"
)
_INI_KINDS = {
    "gate table": ("[AndOr]\njj_count = 10\n", ["--config", "FILE", "gen"]),
    "scenario": (_SCENARIO, ["power", "--scenario", "FILE"]),
    "descriptor": (_DESCRIPTOR, ["sidebands", "--measurements", "FILE"]),
}


class TestInputFiles:
    """Every input file is read by one reader: a malformed file of any kind
    is a usage error that names the file, and the section and key where
    there is one."""

    def _refused(self, tmp_path, capsys, kind, text, message):
        argv = _INI_KINDS[kind][1]
        path = tmp_path / "input.ini"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = [str(path) if a == "FILE" else a for a in argv]
        assert_usage_error(tmp_path, capsys, argv, message.format(path=path))

    @pytest.mark.parametrize("kind", ["gate table", "scenario"])
    def test_no_section_header(self, tmp_path, capsys, kind):
        text = _INI_KINDS[kind][0].split("\n", 1)[1]
        self._refused(
            tmp_path, capsys, kind, text,
            "File contains no section headers. file: '{path}', line: 1",
        )

    @pytest.mark.parametrize("kind", sorted(_INI_KINDS))
    def test_repeated_key(self, tmp_path, capsys, kind):
        valid = _INI_KINDS[kind][0]
        header, first, rest = valid.split("\n", 2)
        key = first.split(" = ")[0]
        self._refused(
            tmp_path, capsys, kind, f"{header}\n{first}\n{first}\n{rest}",
            f"While reading from '{{path}}' [line 3]: option '{key}' in section "
            f"'{header[1:-1]}' already exists",
        )

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("gate table", "[AndOr]\nic_avg = 5%\n",
             "{path}: [AndOr] ic_avg = '5%' is not a number"),
            ("gate table", "[AndOr]\njj_count = x\n",
             "{path}: [AndOr] jj_count = 'x' is not an integer"),
            ("scenario", "[scenario]\nic_avg = 162e-6\nfrequency = 10e9\n",
             "{path}: [scenario] n_devices is missing"),
            ("scenario", _SCENARIO + "seq_junctions_per_phase = 8.5\n",
             "{path}: [scenario] seq_junctions_per_phase = '8.5' is not an integer"),
            ("descriptor", _DESCRIPTOR.replace("f_clock = 6.2e9\n", ""),
             "{path}: [chop] f_clock is missing"),
            ("descriptor", _DESCRIPTOR.replace("0.42", "abc"),
             "{path}: [regions] cla_core = 'abc' is not a number"),
            ("descriptor", "[DEFAULT]\nssb_db = -60\n" + _DESCRIPTOR,
             "{path}: unknown section [DEFAULT]"),
            ("gate table", b"[AndOr]\njj_count = 1\xff\n",
             "{path}: not a UTF-8 gate table (byte 0xff at offset 20)"),
            ("gate table", "[AndOr]\nseq_depth = 50\n",
             "{path}: [AndOr] AndOr: seq_depth 50 exceeds jj_count 10"),
            ("gate table", "[Split]\njj_count = -1\n",
             "{path}: [Split] junction counts must be non-negative"),
            ("scenario", _SCENARIO + "seq_junctions_per_phase = -3\n",
             "{path}: [scenario] seq_junctions_per_phase must be finite and > 0, got -3"),
            ("scenario", _SCENARIO + "seq_junctions_per_phase = 0\n",
             "{path}: [scenario] seq_junctions_per_phase must be finite and > 0, got 0"),
            ("scenario", _SCENARIO.replace("815", "-815"),
             "{path}: [scenario] n_devices must be finite and > 0, got -815.0"),
            ("descriptor", _DESCRIPTOR.replace("-69.3", "3"),
             "{path}: [line.Q] SSB ratio must be negative (below the carrier), got 3.0"),
            ("descriptor", _DESCRIPTOR.replace("zero_len = 12000", "zero_len = 0"),
             "{path}: [chop] chop block lengths must be positive"),
        ],
        ids=["percent", "int", "missing-key", "float-for-int", "missing-chop-key",
             "region", "default-section", "not-utf8", "seq-depth", "negative-jj",
             "seq-junctions-negative", "seq-junctions-zero", "n-devices",
             "ssb-positive", "chop-zero"],
    )
    def test_bad_value_names_file_section_and_key(
        self, tmp_path, capsys, kind, text, message
    ):
        self._refused(tmp_path, capsys, kind, text, message)

    @pytest.mark.parametrize("option", ["validate", "--vectors"])
    def test_non_utf8_text_file_names_the_path(
        self, tmp_path, netlist_file, capsys, option
    ):
        path = tmp_path / "latin1"
        if option == "validate":
            raw = netlist_file.read_bytes().replace(b"region=io", b"region=\xe9o", 1)
            argv, what = ["validate", str(path)], "netlist"
        else:
            raw = b"1 2\n\xe93 4\n"
            argv = ["sim", "--netlist", str(netlist_file), "--vectors", str(path)]
            what = "vectors file"
        path.write_bytes(raw)
        offset = raw.index(b"\xe9")
        assert_usage_error(
            tmp_path, capsys, argv,
            f"{path}: not a UTF-8 {what} (byte 0xe9 at offset {offset})",
        )

    def test_bad_netlist_record_names_the_file(self, tmp_path, netlist_file, capsys):
        path = tmp_path / "bad.rqlnet"
        lines = netlist_file.read_text().splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith("gate "))
        lines[k] = re.sub(r"phase=\d+", "phase=zz", lines[k])
        path.write_text("\n".join(lines) + "\n")
        assert_usage_error(
            tmp_path, capsys, ["validate", str(path)],
            f"{path}: line {k + 1}: bad gate record: invalid literal for int()",
        )

    @pytest.mark.parametrize("power_dbm", ["1e300", "-1e300", "1000", "inf"])
    def test_spectrum_power_out_of_range_names_the_row(
        self, tmp_path, capsys, power_dbm
    ):
        path = tmp_path / "spectrum.csv"
        path.write_text(
            "frequency_hz,power_dbm\n6199999000,-70\n"
            f"6200000000,-2\n6200001000,{power_dbm}\n"
        )
        assert_usage_error(
            tmp_path, capsys, ["sidebands", "--spectrum-q", str(path)],
            f"{path}: spectrum row '6200001000,{power_dbm}' lies outside +/-1000 dBm",
        )

    @pytest.mark.parametrize("text", ["", "# A B\n\n  # none\n"])
    def test_vectors_file_without_a_vector_is_usage_error(
        self, tmp_path, netlist_file, capsys, text
    ):
        path = tmp_path / "vecs.txt"
        path.write_text(text)
        assert_usage_error(
            tmp_path, capsys,
            ["sim", "--netlist", str(netlist_file), "--vectors", str(path), "--check"],
            f"{path}: the vectors file holds no 'A B' line",
        )


class TestReport:
    """Every command computes first and then reports: ``--format json``
    prints the summary file's object, and an error writes nothing."""

    @pytest.mark.parametrize(
        "argv, summary",
        [
            (["gen", "--width", "4"], "gen_stats.json"),
            (["validate", "NETLIST"], "validate.json"),
            (["sim", "--netlist", "NETLIST", "--exhaustive", "--check"], "summary.json"),
            (["margins", "--netlist", "NETLIST", "--steps", "3"], None),
            (["power", "--n", "815", "--ic", "162e-6", "--f", "6.21e9"], "power.json"),
            (["sidebands", "--q", "-69.3", "--i", "-79.3", "--p0q", "-2.0",
              "--p0i", "-2.4"], "sidebands.json"),
            (["clocknet", "--points", "21"], None),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_json_stdout_is_the_summary(
        self, tmp_path, netlist_file, capsys, argv, summary
    ):
        argv = [str(netlist_file) if a == "NETLIST" else a for a in argv]
        code, out = run(tmp_path, "--format", "json", *argv)
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert isinstance(printed, dict)
        if summary:
            assert printed == json.loads((out / summary).read_text())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--clock", "0"], "frequency '0' must be finite and > 0"),
            (["sim", "--netlist", "NETLIST", "--prbs", "0x1", "--cycles", "0"],
             "--cycles must be positive, got 0"),
            (["margins", "--netlist", "NETLIST", "--ceiling", "0"],
             "ceiling must be > 0"),
        ],
        ids=["gen", "sim", "margins"],
    )
    def test_usage_error_leaves_no_out(
        self, tmp_path, netlist_file, capsys, argv, message
    ):
        argv = [str(netlist_file) if a == "NETLIST" else a for a in argv]
        assert_usage_error(tmp_path, capsys, argv, message)

    @pytest.mark.parametrize("value", ["1e999", "0"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--clock", "{}"],
            ["sim", "--netlist", "NETLIST", "--prbs", "0x1", "--timed", "--clock", "{}"],
            ["margins", "--netlist", "NETLIST", "--fmin", "{}"],
            ["margins", "--netlist", "NETLIST", "--fmax", "{}"],
            ["margins", "--netlist", "NETLIST", "--calibrate", "--calibrate-at", "{}"],
            ["power", "--n", "815", "--ic", "162e-6", "--f", "{}"],
            ["sidebands", "--q", "-69.3", "--i", "-79.3", "--p0q", "-2.0",
             "--p0i", "-2.4", "--f-clock", "{}"],
            ["clocknet", "--f0", "{}"],
            ["clocknet", "--sweep", "1:{}"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_frequency_must_be_finite_and_positive(
        self, tmp_path, netlist_file, capsys, argv, value
    ):
        argv = [
            str(netlist_file) if a == "NETLIST" else a.format(value) for a in argv
        ]
        assert_usage_error(
            tmp_path, capsys, argv, f"frequency '{value}' must be finite and > 0"
        )
