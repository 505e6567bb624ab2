#!/usr/bin/env python3
"""Digest every CLI flow of a source checkout, to show that a refactor
leaves the command-line behaviour byte-identical.

    python3 benchmarks/cli_flows.py [--checkout DIR]

Runs each flow below through ``rqlsim.cli.main`` of ``DIR/src`` (this
checkout by default), in one scratch directory that is deleted afterwards
and that first receives the input files the flows read, and prints one line per flow: its name and one sha256 over the exit code,
stdout, stderr and every file the flow wrote under ``--out``, manifest
included.  The scratch directory's path is replaced by a fixed token
before hashing, so two checkouts print the same lines exactly when their
flows behave the same.  Compare the output of two checkouts with ``diff``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = "<work>"


def _spectrum(p0_dbm: float, ssb_db: float) -> str:
    """A spectrum CSV around the 6.2 GHz carrier of ``sidebands``' defaults,
    with first sidebands at its 12000:12000 chop fundamental."""
    f_c, f_m = 6.2e9, 6.2e9 / 24000
    level = {0: p0_dbm, -1: p0_dbm + ssb_db, 1: p0_dbm + ssb_db}
    rows = [f"{f_c + k * f_m:.3f},{level.get(k, -120.0):.3f}" for k in range(-8, 9)]
    return "frequency_hz,power_dbm\n" + "\n".join(rows) + "\n"


# One valid input file of each kind the CLI reads besides a netlist, by the
# name a flow gives it.
INPUTS = {
    "gates.ini": "[AndOr]\njj_count = 12\nic_avg = 150.5\n[Split]\nic_avg = 170\n",
    "scenario.ini": (
        "[scenario]\nn_devices = 2e6\nic_avg = 100e-6\nfrequency = 10e9\n"
        "margin_frac = 0.05\nline_impedance = 25\n"
    ),
    "descriptor.ini": (
        "# the paper's measured chain\n"
        "[chop]\nf_clock = 6.2e9\nactive_len = 12000\nzero_len = 12000\n"
        "[line.Q]\np0_dbm = -2.0\nssb_db = -69.3\n"
        "[line.I]\napplied_dbm = -1.9\nreturned_dbm = -2.9\nssb_db = -79.3\n"
        "[regions]\ncla_core = 0.42\namps = 0.5\n"
    ),
    "q.csv": _spectrum(-2.0, -69.3),
    "i.csv": _spectrum(-2.4, -79.3),
    "vectors.txt": "# A B in hex\n0 0\nff ff\n12,34\n80 80  # carry out\nab cd\n",
    "serial.txt": "0110 1001 1100 0011\n" * 4,
}

# (flow name, CLI arguments after ``--out``).  NET8, NET64, CHIP64 and IDLE64
# stand for the netlists that the first four flows generate, and a name in
# INPUTS for that file.
FLOWS = [
    ("gen-8", ["gen", "--width", "8"]),
    ("gen-64", ["gen", "--width", "64"]),
    ("gen-chip-ptl-64", ["gen", "--width", "64", "--chip-mode", "--ptl-um", "370"]),
    ("gen-idle2-64", ["gen", "--width", "64", "--idle", "2"]),
    ("validate-64", ["validate", "NET64"]),
    ("sim-exhaustive-8", ["sim", "--netlist", "NET8", "--exhaustive", "--check"]),
    ("sim-prbs-64-120000", ["sim", "--netlist", "NET64", "--prbs", "0xACE1",
                            "--cycles", "120000", "--check"]),
    ("sim-prbs-64-4096", ["sim", "--netlist", "NET64", "--prbs", "0xACE1",
                          "--cycles", "4096", "--check"]),
    ("sim-timed-8-12GHz", ["sim", "--netlist", "NET8", "--prbs", "0x1234",
                           "--cycles", "1000", "--check", "--timed", "--clock", "12GHz"]),
    ("sim-timed-8-14GHz-json", ["--format", "json", "sim", "--netlist", "NET8",
                                "--prbs", "0x1234", "--cycles", "300", "--check",
                                "--timed", "--clock", "14GHz"]),
    ("sim-timed-64-10GHz", ["sim", "--netlist", "NET64", "--prbs", "0x5",
                            "--cycles", "40000", "--check", "--timed", "--clock", "10GHz"]),
    ("sim-timed-64-14GHz", ["sim", "--netlist", "NET64", "--prbs", "0x5",
                            "--cycles", "4096", "--check", "--timed", "--clock", "14GHz"]),
    ("sim-timed-64-14GHz-bias-json", ["--format", "json", "sim", "--netlist", "NET64",
                                      "--prbs", "0x77", "--cycles", "2000", "--check",
                                      "--timed", "--clock", "14GHz", "--bias", "1.3"]),
    ("sim-timed-chip-ptl-64-14GHz", ["sim", "--netlist", "CHIP64", "--prbs", "0xBEEF",
                                     "--cycles", "4096", "--check", "--timed",
                                     "--clock", "14GHz"]),
    ("sim-timed-idle2-64-11GHz", ["sim", "--netlist", "IDLE64", "--prbs", "0x1",
                                  "--cycles", "33000", "--check", "--timed",
                                  "--clock", "11GHz"]),
    ("sim-exhaustive-64", ["sim", "--netlist", "NET64", "--exhaustive", "--check"]),
    ("margins-64-calibrate", ["margins", "--netlist", "NET64", "--steps", "13",
                              "--calibrate"]),
    ("margins-8-json", ["--format", "json", "margins", "--netlist", "NET8"]),
    ("power-netlist", ["power", "--netlist", "NET8", "--f", "6.2GHz"]),
    ("clocknet", ["clocknet"]),
    ("clocknet-json", ["--format", "json", "clocknet"]),
    ("power-budget", ["power", "--n", "815", "--ic", "162e-6", "--f", "10GHz",
                      "--budget"]),
    ("sidebands", ["sidebands", "--q", "-69.3", "--i", "-79.3", "--p0q", "-2.0",
                   "--p0i", "-2.4"]),
    ("gen-8-config", ["--config", "gates.ini", "gen", "--width", "8"]),
    ("power-scenario", ["power", "--scenario", "scenario.ini"]),
    ("sidebands-measurements", ["sidebands", "--measurements", "descriptor.ini"]),
    ("sidebands-spectrum", ["sidebands", "--spectrum-q", "q.csv",
                            "--spectrum-i", "i.csv"]),
    ("sim-vectors-8", ["sim", "--netlist", "NET8", "--vectors", "vectors.txt",
                       "--check"]),
    ("sim-serial-8", ["sim", "--netlist", "NET8", "--serial", "serial.txt",
                      "--check"]),
]


def run_flow(main, work: Path, name: str, argv: list[str]) -> str:
    """Run one flow with ``--out work/name``; returns its digest."""
    nets = {
        "NET8": work / "gen-8" / "adder8.rqlnet",
        "NET64": work / "gen-64" / "adder64.rqlnet",
        "CHIP64": work / "gen-chip-ptl-64" / "adder64.rqlnet",
        "IDLE64": work / "gen-idle2-64" / "adder64.rqlnet",
        **{name: work / name for name in INPUTS},
    }
    out = work / name
    argv = ["--out", str(out), *(str(nets.get(a, a)) for a in argv)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    h = hashlib.sha256()

    def add(label: str, data: bytes) -> None:
        data = data.replace(str(work).encode(), WORK.encode())
        h.update(f"{label}\0{len(data)}\0".encode())
        h.update(data)

    add("exit", str(code).encode())
    add("stdout", stdout.getvalue().encode())
    add("stderr", stderr.getvalue().encode())
    if out.exists():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            add(f"file {path.relative_to(out)}", path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    src = (args.checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import rqlsim.cli

    if not Path(rqlsim.cli.__file__).resolve().is_relative_to(src):
        print(f"cli_flows: rqlsim imported from {rqlsim.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="cli-flows-") as tmp:
        work = Path(tmp)
        for name, text in INPUTS.items():
            (work / name).write_text(text)
        for name, flow in FLOWS:
            print(f"{name} {run_flow(rqlsim.cli.main, work, name, flow)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
