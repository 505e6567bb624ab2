"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Expected values that are not fixed definitions were computed
from independent oracles (integer addition, sliding-window models, direct
spectral synthesis, closed-form bandwidth) before being frozen here.
"""

import time

import numpy as np
import pytest

from rqlsim import ClockConfig, build_kogge_stone, latency
from rqlsim.adder import StageLayout
from rqlsim.clocknet import cascade_sparams, design_transformer, return_loss_db
from rqlsim.gates import junction_delay
from rqlsim.power import ScalingScenario, clock_budget, dynamic_power
from rqlsim.sidebands import (
    ModulationFactors,
    SidebandMeasurement,
    am_pm_corrected_power,
    chop_fundamental,
    extract_ma,
    extract_mp,
    spectrum_sidebands,
    synthesize_modulated,
)
from rqlsim.sim import calibrate_overbias, margin_sweep, simulate_logic
from rqlsim.sim.timing import check_windows


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_functional_correctness(adder8):
    started = time.time()
    n = 256
    a = np.repeat(np.arange(n, dtype=np.uint64), n)
    b = np.tile(np.arange(n, dtype=np.uint64), n)
    trace = simulate_logic(adder8, (a, b))
    assert np.array_equal(trace.sums, (a + b) & np.uint64(0xFF))
    assert np.array_equal(
        trace.couts.astype(np.uint64), ((a + b) >> np.uint64(8)) & np.uint64(1)
    )

    for width in (16, 32, 64):
        nl = build_kogge_stone(width, idle_phases=0)
        rng = np.random.default_rng(width)
        if width == 64:
            av = rng.integers(0, 1 << 64, 120_000, dtype=np.uint64)
            bv = rng.integers(0, 1 << 64, 120_000, dtype=np.uint64)
            want_s = av + bv  # uint64 wraps modulo 2**64
        else:
            av = rng.integers(0, 1 << width, 120_000, dtype=np.uint64)
            bv = rng.integers(0, 1 << width, 120_000, dtype=np.uint64)
            want_s = (av + bv) & np.uint64((1 << width) - 1)
        tr = simulate_logic(nl, (av, bv))
        assert np.array_equal(tr.sums, want_s)
        if width < 64:
            want_c = ((av + bv) >> np.uint64(width)) & np.uint64(1)
            assert np.array_equal(tr.couts.astype(np.uint64), want_c)
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report(1, f"65536 exhaustive + 3x120k random vectors in {elapsed:.1f} s")


def test_criterion_02_latency_chain(adder8):
    rep = latency(adder8, 10e9)
    assert (rep.phases, rep.cycles) == (6, 1.5)
    assert rep.latency_ps == 150.0

    rep5 = latency(StageLayout(8, idle_phases=0), 10e9)
    assert (rep5.phases, rep5.cycles) == (5, 1.25)
    assert rep5.latency_ps == 125.0

    rep64 = latency(StageLayout(64, idle_phases=0), 20e9)
    assert (rep64.phases, rep64.cycles) == (8, 2.0)
    assert rep64.latency_ps == 100.0
    _report(2, "6 phases = 1.5 cycles = 150 ps; 5 = 1.25 cycles; 64-bit 100 ps @ 20 GHz")


def test_criterion_03_power_formula():
    p_core = dynamic_power(162e-6, 815, 6.21e9)
    assert abs(p_core - 560e-9) / 560e-9 < 0.01
    p_vlsi = dynamic_power(100e-6, 2e6, 10e9)
    assert abs(p_vlsi - 1.4e-3) / 1.4e-3 < 0.03
    _report(3, f"core {p_core * 1e9:.1f} nW (560 +/-1%), chip {p_vlsi * 1e3:.2f} mW (1.4 +/-3%)")


def test_criterion_04_sideband_chain():
    f_mod = chop_fundamental(6.2e9, 12000, 12000)
    q = SidebandMeasurement(-2.0, -69.3, 6.2e9, f_mod)
    i = SidebandMeasurement(-2.4, -79.3, 6.2e9, f_mod)
    p_q = am_pm_corrected_power(q)
    p_i = am_pm_corrected_power(i)
    assert abs(p_q - 970e-9) / 970e-9 < 0.02
    assert abs(p_i - 280e-9) / 280e-9 < 0.02
    total = p_q + p_i
    assert abs(total - 1.25e-6) / 1.25e-6 < 0.02
    cla = 0.42 * total
    assert abs(cla - 510e-9) / 510e-9 < 0.05
    _report(
        4,
        f"Q {p_q * 1e9:.0f} nW, I {p_i * 1e9:.0f} nW, total "
        f"{total * 1e6:.2f} uW, CLA {cla * 1e9:.0f} nW",
    )


def test_criterion_05_am_pm_extraction():
    m_a = extract_ma(0.91)
    assert abs(m_a - 0.023) <= 0.001
    m_p = extract_mp(1.4e-12, 6e9)
    assert abs(m_p - 0.026) <= 0.001
    _report(5, f"m_a = {m_a:.4f} (0.023 +/-0.001), m_p = {m_p:.4f} (0.026 +/-0.001)")


def test_criterion_06_modulation_round_trip():
    f_c = 6.2e9
    f_m = f_c / 512
    rate = 6 * f_c
    grid = (0.0, 0.01, 0.023, 0.026, 0.05)
    checked = 0
    for m_a in grid:
        for m_p in grid:
            v = synthesize_modulated(
                1.0, ModulationFactors(m_a, m_p), f_c, f_m, 1.0 / f_m, rate
            )
            lo, hi = spectrum_sidebands(v, rate, f_c, f_m)
            got = 0.5 * (lo + hi)
            want = (m_a**2 + m_p**2) / 4.0
            if want == 0.0:
                assert got < 1e-12
            else:
                assert abs(got - want) / want < 0.02
            checked += 1
    _report(6, f"{checked} synthesized waveforms recover (m_a^2+m_p^2)/4 within 2%")


def test_criterion_07_chop_arithmetic():
    f = chop_fundamental(6.2e9, 12000, 12000)
    assert f == pytest.approx(258.33e3, abs=50.0)
    assert abs(f - 259e3) < 1e3
    _report(7, f"12k+12k at 6.2 GHz -> {f / 1e3:.1f} kHz (reported as 259 kHz)")


def test_criterion_08_timing_model(adder8):
    clock = ClockConfig(10e9)
    arr, violations = check_windows(adder8, clock)
    worst = max(arr.values())
    assert violations == []
    assert worst == pytest.approx(8 * 3.0)
    assert clock.window_ps == pytest.approx(25.0)

    spread = 8 * (junction_delay(0.9, 3.0) - junction_delay(1.1, 3.0))
    assert spread == pytest.approx(4.8485, abs=2e-4)
    assert abs(spread - 5.0) / 5.0 < 0.10
    _report(8, f"worst chain {worst:.0f} ps in 25 ps window; +/-10% spread {spread:.2f} ps")


def test_criterion_09_margin_properties(adder8):
    freqs = np.linspace(4e9, 16e9, 13)
    ceiling = calibrate_overbias(adder8, 10e9, width_db=4.6)
    curve = margin_sweep(adder8, freqs, ceiling=ceiling)
    uppers = {p.upper_db for p in curve.points}
    assert len(uppers) == 1
    widths = curve.widths()
    assert all(a >= b - 1e-12 for a, b in zip(widths, widths[1:]))
    at_10 = curve.points[6]
    assert at_10.frequency_hz == pytest.approx(10e9)
    assert at_10.width_db == pytest.approx(4.6, abs=1e-9)
    _report(
        9,
        f"upper fixed at {curve.points[0].upper_db:.2f} dB; widths "
        f"non-increasing; 10 GHz width {at_10.width_db:.2f} dB (ceiling "
        f"{ceiling:.3f})",
    )


def test_criterion_10_clock_budget():
    budget = clock_budget(ScalingScenario(2e6, 100e-6, 10e9))
    assert abs(budget.line_current_a - 9e-3) / 9e-3 < 0.02
    assert abs(budget.p_applied_w - 4e-3) / 4e-3 < 0.05
    _report(
        10,
        f"2M devices -> {budget.p_applied_w * 1e3:.2f} mW applied, "
        f"{budget.line_current_a * 1e3:.2f} mA on 50 ohm (9 mA +/-2%)",
    )


def test_criterion_11_clock_network():
    design = design_transformer(50.0, 4.0, 6, 7.5e9, ripple_db=-30.0)
    freqs = np.linspace(5e9, 10e9, 501)
    s = cascade_sparams(design, freqs)
    rl = return_loss_db(s[:, 0])
    assert rl.min() >= 27.0

    wide = cascade_sparams(design, np.linspace(0.5e9, 20e9, 391))
    power_sum = np.abs(wide[:, 0]) ** 2 + np.abs(wide[:, 1]) ** 2
    assert np.max(np.abs(power_sum - 1.0)) <= 1e-10
    _report(
        11,
        f"6-section 50->4 ohm: RL >= {rl.min():.1f} dB over 5-10 GHz; "
        f"|S11|^2+|S21|^2 = 1 +/- 1e-10",
    )


def test_criterion_12_structural_properties(adder8):
    from rqlsim import legalize_fanout, validate

    assert validate(adder8, max_fanout=4) == []
    worst_fanout = max(len(c) for c in adder8.fanout_map().values())
    assert worst_fanout <= 4

    for g in adder8.gates:
        for pin in g.fanin:
            assert g.phase - 1 <= adder8.gate(pin.gid).phase <= g.phase

    rng = np.random.default_rng(12)
    a = rng.integers(0, 256, 4096, dtype=np.uint64)
    b = rng.integers(0, 256, 4096, dtype=np.uint64)
    reference = simulate_logic(adder8, (a, b))

    relegalized = legalize_fanout(adder8, 2)
    assert validate(relegalized, max_fanout=2) == []
    t2 = simulate_logic(relegalized, (a, b))
    assert np.array_equal(reference.sums, t2.sums)

    from rqlsim import assign_phases

    relaid = assign_phases(adder8, StageLayout(8, idle_phases=0))
    t3 = simulate_logic(relaid, (a, b))
    assert np.array_equal(reference.sums, t3.sums)
    _report(
        12,
        "fanout <= 4, phase monotone; legalization and re-layout preserve "
        "function on 4096 vectors",
    )
