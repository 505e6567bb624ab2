"""Command-line front end.

Subcommands: gen, validate, sim, margins, power, sidebands, clocknet.
Every command computes its whole result first and then reports it through
``_report``, the only code that creates ``--out``, writes files there and
prints, so an error found while computing leaves no ``--out`` behind.
Every run writes a manifest of its arguments next to its outputs, and all
outputs are deterministic functions of the manifest.  ``--format json``
prints the object the command's summary file holds.

Exit codes: 0 success, 1 check failure, 2 usage/parameter error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import adder, clocknet, power, sidebands
from .gates import ClockConfig, load_gate_table
from .netlist import Netlist, missing_ports, netlist_stats, validate
from .sim import (
    DEFAULT_OVERBIAS,
    InputProgram,
    backend_name,
    calibrate_overbias,
    margin_sweep,
    shift_register_pairs,
    simulate_logic,
    simulate_timed,
)
from .units import format_si, parse_frequency, parse_frequency_range, read_text


def _report(
    args, payload, table, *, files=(), summary=None, manifest=None, code=0
) -> int:
    """Write a finished command's outputs under ``--out`` and print it.

    Each ``(name, writer)`` in ``files`` is called with ``out / name``;
    ``summary`` names the file that holds ``payload`` as JSON, and
    ``manifest`` adds keys to ``manifest.json``.  ``--format json`` prints
    ``payload``, the table format prints ``table``.  Returns ``code``.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in files:
        write(out / name)
    payload_json = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if summary:
        (out / summary).write_text(payload_json + "\n")
    record = {
        "subcommand": args.command,
        "arguments": {
            k: v for k, v in sorted(vars(args).items()) if k != "func"
        },
        **(manifest or {}),
    }
    (out / "manifest.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n"
    )
    print(payload_json if args.format == "json" else table)
    return code


def cmd_gen(args) -> int:
    f = parse_frequency(args.clock)
    netlist = adder.build_kogge_stone(
        args.width,
        idle_phases=args.idle,
        idle_position=args.idle_position,
        chip_mode=args.chip_mode,
        max_fanout=args.max_fanout,
        gate_table=load_gate_table(args.config) if args.config else None,
        ptl_length_um=args.ptl_um,
    )
    stats = netlist_stats(netlist)
    lat = adder.latency(netlist, f)
    name = f"adder{args.width}.rqlnet"
    payload = {
        "netlist": name,
        "width": args.width,
        "phases": lat.phases,
        "cycles": lat.cycles,
        "latency_ps": lat.latency_ps,
        "clock_hz": f,
        "jj_total": stats.jj_total,
        "ic_avg_ua": stats.ic_avg_ua,
        "per_line_ic_ua": stats.per_line_ic_ua,
        "gate_counts": stats.gate_counts,
    }
    table = (
        f"{args.width}-bit adder -> {Path(args.out, name)}\n"
        f"phases {lat.phases}  cycles {lat.cycles:g}  "
        f"latency {lat.latency_ps:g} ps at {format_si(f, 'Hz')}\n"
        f"junctions {stats.jj_total}  ic_avg {stats.ic_avg_ua:g} uA"
    )
    return _report(
        args, payload, table, files=[(name, netlist.save)], summary="gen_stats.json"
    )


def cmd_validate(args) -> int:
    netlist = Netlist.load(args.netlist)
    diags = validate(netlist, max_fanout=args.max_fanout) + [
        f"port {name}: missing from the I/O header"
        for name in missing_ports(netlist)
    ]
    return _report(
        args,
        {"diagnostics": diags},
        "\n".join(diags) or "netlist clean",
        summary="validate.json",
        code=1 if diags else 0,
    )


def _prbs_seed(text: str) -> int:
    """The ``--prbs`` LFSR seed: an integer literal in 1..0xFFFF."""
    try:
        seed = int(text, 0)
    except ValueError:
        seed = 0
    if not 1 <= seed <= 0xFFFF:
        raise ValueError(
            f"--prbs takes an LFSR seed in 1..0xFFFF (e.g. 0xACE1), got {text!r}"
        )
    return seed


def _sim_vectors(args, netlist) -> tuple[np.ndarray, np.ndarray]:
    """The stimulus as operand arrays ``(a, b)``, one entry per cycle."""
    if args.cycles is not None and args.prbs is None:
        raise ValueError("--cycles applies only to --prbs")
    if args.cycles is not None and args.cycles <= 0:
        raise ValueError(f"--cycles must be positive, got {args.cycles}")
    if args.exhaustive:
        if netlist.width > 8:
            raise ValueError("exhaustive mode supports widths up to 8")
        values = np.arange(1 << netlist.width, dtype=np.uint64)
        return np.repeat(values, len(values)), np.tile(values, len(values))
    if args.vectors:
        pairs = []
        text = read_text(args.vectors, "vectors file")
        for lineno, ln in enumerate(text.splitlines(), 1):
            ln = ln.split("#")[0].strip()
            if not ln:
                continue
            try:
                a, b = (int(v, 16) for v in ln.replace(",", " ").split())
                if a < 0 or b < 0:
                    raise ValueError("negative operand")
            except ValueError:
                raise ValueError(
                    f"{args.vectors}, line {lineno}: expected two "
                    f"non-negative hex values 'A B', got {ln!r}"
                ) from None
            if (a | b) >> netlist.width:
                raise ValueError(
                    f"{args.vectors}, line {lineno}: operand wider than "
                    f"the {netlist.width}-bit netlist in {ln!r}"
                )
            pairs.append((a, b))
        if not pairs:
            raise ValueError(f"{args.vectors}: the vectors file holds no 'A B' line")
        a, b = np.asarray(pairs, dtype=np.uint64).reshape(-1, 2).T
        return a, b
    if args.serial:
        bits = InputProgram.from_file(args.serial).serial_bits
        stages = 2 * netlist.width
        if len(bits) < stages:
            raise ValueError(
                f"{args.serial}: --serial stream holds {len(bits)} bits; the "
                f"{netlist.width}-bit netlist's {stages}-stage shift register "
                f"needs at least {stages}"
            )
        return shift_register_pairs(bits, netlist.width)
    if args.prbs is not None:
        seed = _prbs_seed(args.prbs)
        cycles = args.cycles or 64
        bits = InputProgram.from_prbs(
            cycles + 2 * netlist.width - 1, seed
        ).serial_bits
        a, b = shift_register_pairs(bits, netlist.width)
        return a[-cycles:], b[-cycles:]
    raise ValueError("choose a stimulus: --vectors, --serial, --prbs or --exhaustive")


def cmd_sim(args) -> int:
    netlist = Netlist.load(args.netlist)
    vectors = _sim_vectors(args, netlist)
    if args.timed:
        clock = ClockConfig(parse_frequency(args.clock), args.bias)
        trace = simulate_timed(netlist, clock, vectors)
    else:
        trace = simulate_logic(netlist, vectors)

    failures = 0
    if args.check:
        # A vector fails once for a wrong sum and once for a wrong carry.
        # The width-bit sum wraps below a exactly when it carries out.
        sums = (trace.a + trace.b) & np.uint64((1 << netlist.width) - 1)
        failures = int(np.count_nonzero(sums != trace.sums))
        if trace.couts is not None:
            failures += int(np.count_nonzero((sums < trace.a) != trace.couts))

    summary = {
        "vectors": trace.n_vectors,
        "pipeline_offset_cycles": trace.offset_cycles,
        "total_events": trace.total_events,
        "check_failures": failures if args.check else None,
        "backend": backend_name(),
        "violations": [
            {"gate": v.name, "phase": v.phase, "arrival_ps": v.arrival_ps}
            for v in trace.violations
        ],
    }
    table = (
        f"{trace.n_vectors} vectors, {trace.total_events} switching events"
        + (
            f"\ncheck: {trace.n_vectors - failures}/{trace.n_vectors} pass"
            if args.check
            else ""
        )
        + (
            f"\ntiming violations: {len(trace.violations)}"
            if args.timed
            else ""
        )
    )
    failed = args.check and (failures or (args.timed and trace.violations))
    return _report(
        args,
        summary,
        table,
        files=[("trace.csv", trace.to_csv)],
        summary="summary.json",
        code=1 if failed else 0,
    )


def cmd_margins(args) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    netlist = Netlist.load(args.netlist)
    f_lo = parse_frequency(args.fmin)
    f_hi = parse_frequency(args.fmax)
    freqs = np.linspace(f_lo, f_hi, args.steps)
    ceiling = args.ceiling
    if args.calibrate:
        ceiling = calibrate_overbias(netlist, parse_frequency(args.calibrate_at))
    curve = margin_sweep(netlist, freqs, ceiling=ceiling)
    rows = [
        {
            "frequency_hz": p.frequency_hz,
            "lower_db": p.lower_db,
            "upper_db": p.upper_db,
            "width_db": p.width_db,
        }
        for p in curve.points
    ]
    table_lines = ["frequency      lower_dB  upper_dB  width_dB"]
    for p in curve.points:
        table_lines.append(
            f"{format_si(p.frequency_hz, 'Hz'):<14} {p.lower_db:8.3f}  "
            f"{p.upper_db:8.3f}  {p.width_db:8.3f}"
        )
    return _report(
        args,
        {"points": rows, "ceiling": ceiling},
        "\n".join(table_lines),
        files=[("margins.csv", curve.to_csv)],
        manifest={"ceiling": ceiling},
    )


def cmd_power(args) -> int:
    if args.scenario:
        scenario = power.load_scenario(args.scenario)
        n, ic = scenario.n_devices, scenario.ic_avg_a
        f = scenario.frequency_hz
        args.margin = scenario.margin_frac
        args.z = scenario.line_impedance_ohm
        args.budget = True
    elif args.netlist:
        if args.f is None:
            raise ValueError("--f is required with --netlist")
        stats = netlist_stats(Netlist.load(args.netlist))
        n = stats.jj_total
        ic = (stats.ic_avg_ua or 0.0) * 1e-6
        f = parse_frequency(args.f)
    else:
        if args.n is None or args.ic is None or args.f is None:
            raise ValueError(
                "give --scenario, --netlist, or all of --n/--ic/--f"
            )
        n, ic = args.n, args.ic
        f = parse_frequency(args.f)
    p = power.dynamic_power(ic, n, f)
    payload = {
        "p_dynamic_w": p,
        "n_junctions": n,
        "ic_avg_a": ic,
        "frequency_hz": f,
        "rsfq_bias_resistor_w": power.rsfq_static_equivalent(),
    }
    table = (
        f"P = 0.33 * Ic * Phi0 * N * f = {format_si(p, 'W')}  "
        f"(N={n:g}, Ic={format_si(ic, 'A')}, f={format_si(f, 'Hz')})"
    )
    if args.budget:
        if not args.scenario:
            scenario = power.ScalingScenario(n, ic, f, args.margin, args.z)
        budget = power.clock_budget(scenario)
        payload["budget"] = budget.to_dict()
        table += (
            f"\napplied clock power  {format_si(budget.p_applied_w, 'W')}"
            f"  (model-based)\nline current rms     "
            f"{format_si(budget.line_current_a, 'A')} on {args.z:g} ohm"
            f"\ntiming spread        {budget.timing_spread_ps:.2f} ps over "
            f"+/-{args.margin:.0%} bias"
        )
    return _report(args, payload, table, summary="power.json")


def _chop_lengths(text: str) -> tuple[int, int]:
    """The ``--chop`` block lengths: two positive cycle counts ``ACTIVE:ZERO``."""
    try:
        active, zero = (int(v) for v in text.split(":"))
    except ValueError:
        active = zero = 0
    if active < 1 or zero < 1:
        raise ValueError(
            "--chop takes ACTIVE:ZERO cycle counts (e.g. 12000:12000), "
            f"got {text!r}"
        )
    return active, zero


def cmd_sidebands(args) -> int:
    f_clock = parse_frequency(args.f_clock)
    f_mod = sidebands.chop_fundamental(f_clock, *_chop_lengths(args.chop))
    if args.measurements:
        mset = sidebands.load_measurements(args.measurements)
        lines = mset.lines
        fractions = mset.region_ic_fractions or {"cla_core": args.cla_frac}
    elif args.spectrum_q or args.spectrum_i:
        lines = {}
        for name, path in (("Q", args.spectrum_q), ("I", args.spectrum_i)):
            if path:
                freqs, powers = sidebands.read_spectrum_csv(path)
                lines[name] = sidebands.measure_from_spectrum(
                    freqs, powers, f_clock, f_mod
                )
        fractions = {"cla_core": args.cla_frac}
    else:
        if None in (args.q, args.i, args.p0q, args.p0i):
            raise ValueError(
                "give --measurements, --spectrum-q/--spectrum-i, or --q/--i "
                "with --p0q/--p0i"
            )
        lines = {
            "Q": sidebands.SidebandMeasurement(args.p0q, args.q, f_clock, f_mod),
            "I": sidebands.SidebandMeasurement(args.p0i, args.i, f_clock, f_mod),
        }
        fractions = {"cla_core": args.cla_frac}

    per_line = {
        name: sidebands.am_pm_corrected_power(m, args.fraction)
        for name, m in lines.items()
    }
    report = power.attribute_power(
        per_line,
        fractions,
        parameters={
            "am_power_fraction": args.fraction,
            "ssb_db": {n: m.ssb_db for n, m in lines.items()},
            "p0_dbm": {n: m.p0_dbm for n, m in lines.items()},
            "f_mod_hz": next(iter(lines.values())).f_mod_hz,
        },
    )
    table_lines = []
    for name, m in lines.items():
        up, _ = sidebands.ssb_power_upper_bound(m)
        table_lines.append(
            f"clock {name}: SSB {m.ssb_db:g} dB @ {m.p0_dbm:g} dBm -> "
            f"{format_si(per_line[name], 'W')} "
            f"(pure-AM bound {format_si(up, 'W')})"
        )
    table_lines.append(f"total dissipation: {format_si(report.p_total_w, 'W')}")
    for region, p in report.per_region_w.items():
        table_lines.append(f"  {region}: {format_si(p, 'W')}")
    return _report(
        args, report.to_dict(), "\n".join(table_lines), summary="sidebands.json"
    )


def cmd_clocknet(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    design = clocknet.design_transformer(
        args.zs,
        args.zl,
        args.sections,
        parse_frequency(args.f0),
        ripple_db=args.ripple,
        kind=args.kind,
    )
    f_lo, f_hi = parse_frequency_range(args.sweep)
    freqs = np.linspace(f_lo, f_hi, args.points)
    s = clocknet.cascade_sparams(design, freqs)
    rl = clocknet.return_loss_db(s[:, 0])

    good = rl >= args.rl_target
    band = None
    if good.any():
        idx = np.flatnonzero(good)
        band = (float(freqs[idx[0]]), float(freqs[idx[-1]]))
    payload = {
        "section_impedances_ohm": list(design.section_impedances),
        "ripple_db": design.ripple_db,
        "fractional_bandwidth": design.fractional_bandwidth,
        "rl_target_db": args.rl_target,
        "band_meeting_target_hz": band,
    }
    table = "sections: " + ", ".join(
        f"{z:.2f}" for z in design.section_impedances
    )
    if band:
        table += (
            f"\nreturn loss >= {args.rl_target:g} dB over "
            f"{format_si(band[0], 'Hz')} - {format_si(band[1], 'Hz')}"
        )
    return _report(
        args,
        payload,
        table,
        files=[
            ("transformer.csv", design.to_csv),
            ("sparams.csv", lambda path: clocknet.sweep_to_csv(design, freqs, path)),
        ],
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rqlsim",
        description="RQL adder generation, simulation and power analysis",
    )
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--config", help="gate parameter table (INI)")
    p.add_argument("--format", choices=("table", "json"), default="table")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an adder netlist")
    g.add_argument("--width", type=int, default=8)
    g.add_argument("--idle", type=int, default=1)
    g.add_argument("--idle-position", type=int, default=None)
    g.add_argument("--chip-mode", action="store_true")
    g.add_argument("--max-fanout", type=int, default=4)
    g.add_argument("--ptl-um", type=float, default=None)
    g.add_argument("--clock", default="10GHz")
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("validate", help="check netlist invariants")
    v.add_argument("netlist")
    v.add_argument("--max-fanout", type=int, default=4)
    v.set_defaults(func=cmd_validate)

    s = sub.add_parser("sim", help="simulate a netlist")
    s.add_argument("--netlist", required=True)
    stimulus = s.add_mutually_exclusive_group()
    stimulus.add_argument("--vectors", help="file of 'A B' hex pairs per cycle")
    stimulus.add_argument("--serial", help="bit-string file for the shift register")
    stimulus.add_argument("--prbs", help="LFSR seed in 1..0xFFFF (e.g. 0xACE1)")
    stimulus.add_argument("--exhaustive", action="store_true")
    s.add_argument("--cycles", type=int)
    s.add_argument("--check", action="store_true")
    s.add_argument("--timed", action="store_true")
    s.add_argument("--clock", default="10GHz")
    s.add_argument("--bias", type=float, default=1.0)
    s.set_defaults(func=cmd_sim)

    m = sub.add_parser("margins", help="clock-power margin sweep")
    m.add_argument("--netlist", required=True)
    m.add_argument("--fmin", default="4GHz")
    m.add_argument("--fmax", default="16GHz")
    m.add_argument("--steps", type=int, default=13)
    m.add_argument("--ceiling", type=float, default=DEFAULT_OVERBIAS)
    m.add_argument("--calibrate", action="store_true")
    m.add_argument("--calibrate-at", default="10GHz")
    m.set_defaults(func=cmd_margins)

    w = sub.add_parser("power", help="dynamic power and clock budget")
    w.add_argument("--n", type=float)
    w.add_argument("--ic", type=float, help="average critical current, A")
    w.add_argument("--f", help="clock frequency (unless --scenario gives it)")
    w.add_argument("--netlist")
    w.add_argument("--budget", action="store_true")
    w.add_argument("--scenario", help="scenario INI file (implies --budget)")
    w.add_argument("--margin", type=float, default=0.10)
    w.add_argument("--z", type=float, default=50.0)
    w.set_defaults(func=cmd_power)

    b = sub.add_parser("sidebands", help="sideband power measurement chain")
    b.add_argument("--measurements", help="descriptor INI file")
    b.add_argument("--spectrum-q", help="spectrum CSV (Hz, dBm) for clock Q")
    b.add_argument("--spectrum-i", help="spectrum CSV (Hz, dBm) for clock I")
    b.add_argument("--q", type=float, help="SSB on clock Q, dB")
    b.add_argument("--i", type=float, help="SSB on clock I, dB")
    b.add_argument("--p0q", type=float, help="carrier at chip on Q, dBm")
    b.add_argument("--p0i", type=float, help="carrier at chip on I, dBm")
    b.add_argument("--fraction", type=float, default=0.5)
    b.add_argument("--cla-frac", type=float, default=0.42)
    b.add_argument("--f-clock", default="6.2GHz")
    b.add_argument("--chop", default="12000:12000")
    b.set_defaults(func=cmd_sidebands)

    c = sub.add_parser("clocknet", help="clock feed transformer design")
    c.add_argument("--sections", type=int, default=6)
    c.add_argument("--zs", type=float, default=50.0)
    c.add_argument("--zl", type=float, default=4.0)
    c.add_argument("--f0", default="7.5GHz")
    c.add_argument("--ripple", type=float, default=-30.0)
    c.add_argument("--kind", choices=("chebyshev", "binomial"), default="chebyshev")
    c.add_argument("--sweep", default="1:20GHz")
    c.add_argument("--points", type=int, default=381)
    c.add_argument("--rl-target", type=float, default=30.0)
    c.set_defaults(func=cmd_clocknet)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"rqlsim: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"rqlsim: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
