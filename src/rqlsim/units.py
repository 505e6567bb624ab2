"""Unit helpers: frequency strings, dBm to watts and SI formatting."""

from __future__ import annotations

import math
import re

_FREQ_SUFFIX = {
    "hz": 1.0,
    "khz": 1e3,
    "mhz": 1e6,
    "ghz": 1e9,
    "thz": 1e12,
}

_FREQ_RE = re.compile(r"^\s*([0-9.eE+-]+)\s*([a-zA-Z]*)\s*$")


def parse_frequency(text) -> float:
    """'10GHz', '259 kHz', '6.21e9' ... -> Hz, finite and > 0."""
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        m = _FREQ_RE.match(text)
        if not m:
            raise ValueError(f"cannot parse frequency {text!r}")
        try:
            value = float(m.group(1)) * _FREQ_SUFFIX[m.group(2).lower() or "hz"]
        except KeyError:
            raise ValueError(f"unknown frequency unit {m.group(2)!r}") from None
    if not 0 < value < math.inf:
        raise ValueError(f"frequency {text!r} must be finite and > 0")
    return value


def parse_frequency_range(text) -> tuple[float, float]:
    """'5GHz:10GHz' or '1:20GHz' -> (f_lo, f_hi) in Hz.

    A unit given only on the second endpoint applies to both.
    """
    lo_s, sep, hi_s = text.partition(":")
    if not sep:
        raise ValueError(f"range {text!r} needs the form lo:hi")
    hi = parse_frequency(hi_s)
    m = _FREQ_RE.match(lo_s)
    if m and m.group(2) == "":
        hi_m = _FREQ_RE.match(hi_s)
        unit = hi_m.group(2).lower() if hi_m else ""
        lo = float(m.group(1)) * _FREQ_SUFFIX.get(unit, 1.0)
    else:
        lo = parse_frequency(lo_s)
    if lo <= 0 or hi <= lo:
        raise ValueError(f"bad frequency range {text!r}")
    return lo, hi


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def format_si(value: float, unit: str, digits: int = 3) -> str:
    """Engineering formatting: 5.6e-7, 'W' -> '560 nW'."""
    if value == 0:
        return f"0 {unit}"
    if not math.isfinite(value):
        return f"{value} {unit}"
    exp = int(math.floor(math.log10(abs(value)) / 3.0) * 3)
    exp = max(-15, min(12, exp))
    prefixes = {
        -15: "f", -12: "p", -9: "n", -6: "u", -3: "m",
        0: "", 3: "k", 6: "M", 9: "G", 12: "T",
    }
    scaled = value / 10.0 ** exp
    return f"{scaled:.{digits}g} {prefixes[exp]}{unit}"
