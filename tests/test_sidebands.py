import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rqlsim.sidebands import (
    ModulationFactors,
    SidebandMeasurement,
    am_pm_corrected_power,
    chop_fundamental,
    extract_ma,
    extract_mp,
    load_measurements,
    p0_from_applied_returned,
    spectrum_sidebands,
    ssb_power_upper_bound,
    synthesize_modulated,
)

Q_LINE = SidebandMeasurement(-2.0, -69.3, 6.2e9, 258.3e3)
I_LINE = SidebandMeasurement(-2.4, -79.3, 6.2e9, 258.3e3)


class TestUpperBound:
    def test_q_line_values(self):
        dp, ratio = ssb_power_upper_bound(Q_LINE)
        assert 10 * math.log10(ratio) == pytest.approx(-26.67, abs=0.02)
        assert abs(dp - 1.37e-6) / 1.37e-6 < 0.01

    def test_vanishing_sidebands(self):
        m = SidebandMeasurement(-2.0, -200.0, 6.2e9, 258.3e3)
        dp, ratio = ssb_power_upper_bound(m)
        assert dp < 1e-12
        assert ratio < 1e-9

    def test_nonnegative_ssb_rejected(self):
        with pytest.raises(ValueError):
            SidebandMeasurement(-2.0, 0.0, 6.2e9, 258.3e3)

    def test_square_chopped_am_round_trip(self):
        # Oracle: a square-wave AM waveform with known envelope swing.  The
        # true dissipated fraction is (Vhi^2 - Vlo^2)/V0^2 = 4k.
        k = 0.01
        f_m, f_c, rate = 1e6, 1e9, 8e9
        n = round(2 * rate / f_m)
        t = np.arange(n) / rate
        sq = np.where((t * f_m) % 1.0 < 0.5, 1.0, -1.0)
        v = (1.0 + k * sq) * np.sin(2 * math.pi * f_c * t)
        lo, hi = spectrum_sidebands(v, rate, f_c, f_m)
        est = 2 * math.pi * math.sqrt(0.5 * (lo + hi))
        assert est == pytest.approx(4 * k, rel=0.01)


class TestCorrectedPower:
    def test_clock_q(self):
        p = am_pm_corrected_power(Q_LINE)
        assert abs(p - 970e-9) / 970e-9 < 0.02

    def test_clock_i(self):
        p = am_pm_corrected_power(I_LINE)
        assert abs(p - 280e-9) / 280e-9 < 0.02

    def test_total_on_chip(self):
        total = am_pm_corrected_power(Q_LINE) + am_pm_corrected_power(I_LINE)
        assert abs(total - 1.25e-6) / 1.25e-6 < 0.02

    def test_fraction_one_is_the_upper_bound(self):
        dp, _ = ssb_power_upper_bound(Q_LINE)
        assert am_pm_corrected_power(Q_LINE, 1.0) == pytest.approx(dp, rel=1e-12)

    def test_upper_bound_dominates_any_fraction(self):
        dp, _ = ssb_power_upper_bound(Q_LINE)
        for frac in (0.1, 0.25, 0.5, 0.9):
            assert am_pm_corrected_power(Q_LINE, frac) < dp

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            am_pm_corrected_power(Q_LINE, 0.0)
        with pytest.raises(ValueError):
            am_pm_corrected_power(Q_LINE, 1.5)


class TestModulationExtraction:
    def test_ma_from_measured_ratio(self):
        assert extract_ma(0.91) == pytest.approx(0.023, abs=0.001)

    def test_ma_no_modulation(self):
        assert extract_ma(1.0) == 0.0

    def test_ma_algebraic_point(self):
        assert extract_ma(1.0 / 3.0) == pytest.approx(0.25)

    def test_ma_inverted_ratio_flagged(self):
        with pytest.raises(ValueError, match="swap"):
            extract_ma(1.1)

    @given(st.floats(0.0, 0.45))
    def test_ma_round_trip(self, m):
        r = (1 - 2 * m) / (1 + 2 * m)
        assert extract_ma(r) == pytest.approx(m, abs=1e-12)

    def test_mp_from_measured_delay(self):
        assert extract_mp(1.4e-12, 6e9) == pytest.approx(0.026, abs=0.001)

    def test_mp_zero_delay(self):
        assert extract_mp(0.0, 6e9) == 0.0

    def test_mp_unit_consistency(self):
        f = 5e9
        assert extract_mp(1.0 / (math.pi * f), f) == pytest.approx(1.0)


class TestChop:
    def test_measured_spacing(self):
        f = chop_fundamental(6.2e9, 12000, 12000)
        assert f == pytest.approx(258.3e3, abs=100.0)
        assert abs(f - 259e3) < 1e3

    def test_alternating_single_bits(self):
        assert chop_fundamental(1e9, 1, 1) == pytest.approx(5e8)

    def test_round_numbers(self):
        assert chop_fundamental(10e9, 5000, 5000) == pytest.approx(1e6)

    def test_rejects_empty_blocks(self):
        with pytest.raises(ValueError):
            chop_fundamental(1e9, 0, 100)


def _sideband_ratio(m_a, m_p, f_c=6.2e9, ratio=512, spc=6):
    f_m = f_c / ratio
    rate = spc * f_c
    v = synthesize_modulated(
        1.0, ModulationFactors(m_a, m_p), f_c, f_m, 1.0 / f_m, rate
    )
    lo, hi = spectrum_sidebands(v, rate, f_c, f_m)
    return 0.5 * (lo + hi)


class TestSynthesisSpectrum:
    def test_unmodulated_carrier_is_a_single_line(self):
        r = _sideband_ratio(0.0, 0.0)
        assert r < 1e-20

    def test_pure_am_two_tone_identity(self):
        # each AM sideband is exactly (m_a/2)^2 in power: -40 dB at 2%
        r = _sideband_ratio(0.02, 0.0)
        assert 10 * math.log10(r) == pytest.approx(-40.0, abs=0.01)

    def test_measured_factors_give_expected_ssb(self):
        r = _sideband_ratio(0.023, 0.026)
        want_db = 10 * math.log10((0.023**2 + 0.026**2) / 4)
        assert 10 * math.log10(r) == pytest.approx(want_db, abs=0.05)
        assert want_db == pytest.approx(-35.2, abs=0.05)

    def test_quadrature_sum_recovered(self):
        for m_a, m_p in [(0.01, 0.0), (0.0, 0.023), (0.023, 0.026), (0.05, 0.05)]:
            r = _sideband_ratio(m_a, m_p)
            assert 4 * r == pytest.approx(m_a**2 + m_p**2, rel=0.02)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 0.06), st.floats(0.0, 0.06))
    def test_round_trip_property(self, m_a, m_p):
        if m_a**2 + m_p**2 < 1e-8:
            return
        r = _sideband_ratio(m_a, m_p)
        assert 4 * r == pytest.approx(m_a**2 + m_p**2, rel=0.02)

    def test_aliasing_guard(self):
        with pytest.raises(ValueError, match="sample rate"):
            synthesize_modulated(
                1.0, ModulationFactors(0.01, 0.0), 1e9, 1e6, 1e-6, 3e9
            )

    def test_whole_period_guard(self):
        with pytest.raises(ValueError, match="whole modulation periods"):
            synthesize_modulated(
                1.0, ModulationFactors(0.01, 0.0), 1e9, 1e6, 1.5e-6, 8e9
            )

    def test_off_bin_guard(self):
        v = np.sin(2 * math.pi * 1e9 * np.arange(8000) / 8e9)
        with pytest.raises(ValueError, match="bins"):
            spectrum_sidebands(v, 8e9, 1.00017e9, 1e6)

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            ModulationFactors(0.6, 0.0)
        with pytest.raises(ValueError):
            ModulationFactors(0.0, -0.1)


class TestMeasurementFile:
    def test_geometric_mean_of_applied_and_returned(self):
        assert p0_from_applied_returned(-1.0, -3.0) == pytest.approx(-2.0)

    def test_load_descriptor(self, tmp_path):
        path = tmp_path / "meas.ini"
        path.write_text(
            "[chop]\n"
            "f_clock = 6.2e9\n"
            "active_len = 12000\n"
            "zero_len = 12000\n"
            "[line.Q]\n"
            "p0_dbm = -2.0\n"
            "ssb_db = -69.3\n"
            "[line.I]\n"
            "applied_dbm = -1.9\n"
            "returned_dbm = -2.9\n"
            "ssb_db = -79.3\n"
            "[regions]\n"
            "cla_core = 0.42\n"
        )
        mset = load_measurements(path)
        assert set(mset.lines) == {"Q", "I"}
        assert mset.lines["Q"].p0_dbm == pytest.approx(-2.0)
        assert mset.lines["I"].p0_dbm == pytest.approx(-2.4)
        assert mset.lines["Q"].f_mod_hz == pytest.approx(258.3e3, abs=100)
        assert mset.region_ic_fractions == {"cla_core": 0.42}

    def test_missing_chop_section(self, tmp_path):
        path = tmp_path / "meas.ini"
        path.write_text("[line.Q]\np0_dbm=-2\nssb_db=-60\n")
        with pytest.raises(ValueError, match="chop"):
            load_measurements(path)


class TestSpectrumInput:
    def _write_spectrum(self, path, f_c=6.2e9, f_m=258.333e3,
                        p0=-2.0, ssb=-69.3):
        rows = ["frequency_hz,power_dbm"]
        for k in range(-40, 41):
            f = f_c + k * f_m / 4.0
            if k == 0:
                p = p0
            elif abs(k) == 4:
                p = p0 + ssb
            else:
                p = -120.0
            rows.append(f"{f:.3f},{p:.3f}")
        path.write_text("\n".join(rows) + "\n")

    def test_measure_from_csv(self, tmp_path):
        from rqlsim.sidebands import measure_from_spectrum, read_spectrum_csv

        path = tmp_path / "spec.csv"
        self._write_spectrum(path)
        freqs, powers = read_spectrum_csv(path)
        m = measure_from_spectrum(freqs, powers, 6.2e9, 258.333e3)
        assert m.p0_dbm == pytest.approx(-2.0)
        assert m.ssb_db == pytest.approx(-69.3, abs=1e-6)
        assert abs(am_pm_corrected_power(m) - 970e-9) / 970e-9 < 0.02

    def test_carrier_must_be_present(self, tmp_path):
        from rqlsim.sidebands import measure_from_spectrum, read_spectrum_csv

        path = tmp_path / "spec.csv"
        self._write_spectrum(path)
        freqs, powers = read_spectrum_csv(path)
        with pytest.raises(ValueError, match="no spectrum point"):
            measure_from_spectrum(freqs, powers, 9.9e9, 258.333e3)

    def test_rejects_short_files(self, tmp_path):
        from rqlsim.sidebands import read_spectrum_csv

        path = tmp_path / "spec.csv"
        path.write_text("frequency_hz,power_dbm\n1e9,-3\n")
        with pytest.raises(ValueError, match="not enough"):
            read_spectrum_csv(path)
