import math

import pytest

from rqlsim.units import (
    IniFile,
    dbm_to_watts,
    format_si,
    parse_frequency,
    parse_frequency_range,
)


class TestFrequencyParsing:
    @pytest.mark.parametrize(
        "text,hz",
        [
            ("10GHz", 10e9),
            ("259kHz", 259e3),
            ("259 kHz", 259e3),
            ("6.21e9", 6.21e9),
            ("7.5 ghz", 7.5e9),
            ("1MHz", 1e6),
            (20e9, 20e9),
        ],
    )
    def test_values(self, text, hz):
        assert parse_frequency(text) == pytest.approx(hz)

    def test_bad_unit(self):
        with pytest.raises(ValueError):
            parse_frequency("10 parsecs")

    def test_ranges(self):
        assert parse_frequency_range("5GHz:10GHz") == (5e9, 10e9)
        assert parse_frequency_range("1:20GHz") == (1e9, 20e9)
        with pytest.raises(ValueError):
            parse_frequency_range("10GHz")
        with pytest.raises(ValueError):
            parse_frequency_range("10GHz:5GHz")


class TestPowerConversions:
    def test_dbm_round_trip(self):
        for dbm in (-79.3, -2.0, 0.0, 10.0):
            watts = dbm_to_watts(dbm)
            assert 10.0 * math.log10(watts) + 30.0 == pytest.approx(dbm)

    def test_zero_dbm_is_a_milliwatt(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)


def test_format_si():
    assert format_si(5.6e-7, "W") == "560 nW"
    assert format_si(1.25e-6, "W") == "1.25 uW"
    assert format_si(10e9, "Hz") == "10 GHz"
    assert format_si(0, "W") == "0 W"


class TestIniFile:
    def test_rules(self, tmp_path):
        path = tmp_path / "a.ini"
        path.write_text("[DEFAULT]\nKey = 5%\n[a]\nn = 3\n")
        ini = IniFile(path, "test file")
        # [DEFAULT] is an ordinary section, keys are case-insensitive and
        # % is a plain character.
        assert ini.sections == {"DEFAULT": {"key": "5%"}, "a": {"n": "3"}}
        assert ini.get("a", "n", int) == 3
        assert ini.get("a", "x", float, 1.5) == 1.5
        with pytest.raises(ValueError, match=r"a.ini: \[a\] x is missing$"):
            ini.get("a", "x")

    def test_repeated_section_is_refused(self, tmp_path):
        path = tmp_path / "a.ini"
        path.write_text("[a]\nn = 3\n[a]\n")
        with pytest.raises(ValueError, match="section 'a' already exists"):
            IniFile(path, "test file")

    def test_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(OSError):
            IniFile(tmp_path / "nope.ini", "test file")
