"""Unit helpers: frequency strings, dBm to watts and SI formatting, and the
one reader of input files, ``read_text`` (UTF-8) and ``IniFile`` (INI), whose
every fault is a ``ValueError`` that names the file."""

from __future__ import annotations

import configparser
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


def read_text(path, what: str) -> str:
    """The file at ``path`` decoded as UTF-8; other bytes raise
    ``ValueError`` naming the file as a ``what``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: not a UTF-8 {what} "
            f"(byte 0x{raw[exc.start]:02x} at offset {exc.start})"
        ) from None


def located(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ``ValueError`` led by ``where``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from None


class IniFile:
    """An INI file parsed once: UTF-8, ``%`` a plain character, ``[DEFAULT]``
    an ordinary section, a repeated section or key refused.  Every fault is
    a one-line ``ValueError`` naming the file."""

    def __init__(self, path, what: str):
        cp = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            cp.read_file(read_text(path, what).splitlines(), source=str(path))
        except configparser.Error as exc:
            raise ValueError(" ".join(str(exc).split())) from None
        self.path = path
        self.sections = {name: dict(cp[name]) for name in cp.sections()}

    def get(self, section: str, key: str, kind=float, default=None):
        """``[section] key`` converted by ``kind`` (``int`` or ``float``);
        ``default`` when the key is absent, which is an error without one."""
        value = self.sections.get(section, {}).get(key)
        if value is None and default is not None:
            return default
        try:
            return kind(value)
        except (TypeError, ValueError):
            want = "an integer" if kind is int else "a number"
            fault = "is missing" if value is None else f"= {value!r} is not {want}"
            raise ValueError(f"{self.path}: [{section}] {key} {fault}") from None
