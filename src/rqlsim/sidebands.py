"""Sideband-based power-dissipation analysis of a modulated clock carrier.

Chopping the input data between all-zeros and a pseudo-random pattern
modulates the clock at the chop fundamental, producing sidebands whose power
ratio to the carrier (SSB, in dB) encodes the dissipated power:

    upper bound (pure AM):   dP/P0 = 2*pi*sqrt(P_ssb/P0)
    AM/PM corrected:         dP/P0 = 2*pi*sqrt(a * P_ssb/P0)

with ``a`` the fraction of sideband power attributable to AM (1/2 when AM
and PM contribute equally, since their sideband amplitudes add in
quadrature).  Internals use exact constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import IniFile, dbm_to_watts, located, read_text


@dataclass(frozen=True)
class SidebandMeasurement:
    """One clock line's spectrum observables."""

    p0_dbm: float  # carrier power at the chip
    ssb_db: float  # single-sideband-to-carrier power ratio
    f_carrier_hz: float
    f_mod_hz: float

    def __post_init__(self):
        if not self.ssb_db < 0:
            raise ValueError(
                f"SSB ratio must be negative (below the carrier), got {self.ssb_db!r}"
            )
        if not abs(self.p0_dbm) < 1000:  # dbm_to_watts overflows above 3112 dBm
            raise ValueError(
                f"carrier power must be finite, within +/-1000 dBm, got {self.p0_dbm!r}"
            )
        if not 0 < self.f_mod_hz < self.f_carrier_hz:
            raise ValueError("modulation must sit below the carrier frequency")

    @property
    def p0_w(self) -> float:
        return dbm_to_watts(self.p0_dbm)


@dataclass(frozen=True)
class ModulationFactors:
    m_a: float  # AM depth, dimensionless
    m_p: float  # PM depth, radians

    def __post_init__(self):
        if not 0.0 <= self.m_a < 0.5:
            raise ValueError("m_a outside [0, 0.5)")
        if self.m_p < 0.0:
            raise ValueError("m_p must be non-negative")


def p0_from_applied_returned(applied_dbm: float, returned_dbm: float) -> float:
    """Carrier power at the chip as the geometric mean of applied and
    returned power, i.e. the dB average; compensates cable attenuation."""
    return 0.5 * (applied_dbm + returned_dbm)


def ssb_power_upper_bound(m: SidebandMeasurement) -> tuple[float, float]:
    """(dP in watts, dP/P0) assuming the sidebands are pure AM."""
    ratio = 2.0 * math.pi * 10.0 ** (m.ssb_db / 20.0)
    return ratio * m.p0_w, ratio


def am_pm_corrected_power(
    m: SidebandMeasurement, am_power_fraction: float = 0.5
) -> float:
    """Dissipated power in watts with only ``am_power_fraction`` of the
    sideband power attributed to AM."""
    if not 0.0 < am_power_fraction <= 1.0:
        raise ValueError("am_power_fraction must be in (0, 1]")
    ratio = 2.0 * math.pi * math.sqrt(
        am_power_fraction * 10.0 ** (m.ssb_db / 10.0)
    )
    return ratio * m.p0_w


def extract_ma(p_lo_over_p_hi: float) -> float:
    """AM depth from the ratio of minimum to maximum envelope power:
    r = (1 - 2 m_a)/(1 + 2 m_a)  =>  m_a = (1 - r)/(2 (1 + r))."""
    r = p_lo_over_p_hi
    if r <= 0:
        raise ValueError("power ratio must be positive")
    if r > 1:
        raise ValueError("power ratio above 1; swap numerator and denominator")
    return (1.0 - r) / (2.0 * (1.0 + r))


def extract_mp(delta_t_s: float, f_carrier_hz: float) -> float:
    """PM depth from the data-modulated delay swing:
    dt = 2 m_p / omega_c  =>  m_p = pi f_c dt."""
    if delta_t_s < 0 or f_carrier_hz <= 0:
        raise ValueError("delay and carrier frequency must be non-negative")
    return math.pi * f_carrier_hz * delta_t_s


def chop_fundamental(f_clock_hz: float, active_len: int, zero_len: int) -> float:
    """Fundamental of the data-chopping square wave: one period is
    active_len + zero_len clock cycles."""
    if active_len <= 0 or zero_len <= 0:
        raise ValueError("chop block lengths must be positive")
    if f_clock_hz <= 0:
        raise ValueError("clock frequency must be positive")
    return f_clock_hz / (active_len + zero_len)


def synthesize_modulated(
    v0: float,
    factors: ModulationFactors,
    f_carrier_hz: float,
    f_mod_hz: float,
    duration_s: float,
    sample_rate_hz: float,
) -> np.ndarray:
    """Samples of the AM+PM carrier
    v(t) = v0 [1 + m_a sin(w_m t)] sin(w_c t + m_p sin(w_m t)).

    The duration must be a whole number of modulation periods and the
    sample rate comfortably above the carrier, so the later spectral
    analysis is coherent and leakage-free.
    """
    if sample_rate_hz <= 4.0 * f_carrier_hz:
        raise ValueError("sample rate must exceed four times the carrier")
    periods = duration_s * f_mod_hz
    if abs(periods - round(periods)) > 1e-9 or round(periods) < 1:
        raise ValueError("duration must span whole modulation periods")
    n = round(duration_s * sample_rate_hz)
    t = np.arange(n) / sample_rate_hz
    wm, wc = 2.0 * math.pi * f_mod_hz, 2.0 * math.pi * f_carrier_hz
    s = np.sin(wm * t)
    return v0 * (1.0 + factors.m_a * s) * np.sin(wc * t + factors.m_p * s)


def spectrum_sidebands(
    samples: np.ndarray,
    sample_rate_hz: float,
    f_carrier_hz: float,
    f_mod_hz: float,
) -> tuple[float, float]:
    """(lower, upper) first-order sideband-to-carrier power ratios.

    Integrates coherently over the full record (no window), so carrier and
    sidebands must land on DFT bins exactly; for small modulation the mean
    of the two ratios approaches (m_a^2 + m_p^2)/4.
    """
    n = len(samples)
    duration = n / sample_rate_hz
    kc = f_carrier_hz * duration
    km = f_mod_hz * duration
    if abs(kc - round(kc)) > 1e-6 or abs(km - round(km)) > 1e-6:
        raise ValueError("carrier and modulation are not on DFT bins")
    kc, km = round(kc), round(km)
    spec = np.fft.rfft(np.asarray(samples, dtype=float))
    p_carrier = abs(spec[kc]) ** 2
    if p_carrier == 0:
        raise ValueError("no carrier present in the record")
    lower = abs(spec[kc - km]) ** 2 / p_carrier
    upper = abs(spec[kc + km]) ** 2 / p_carrier
    return lower, upper


def read_spectrum_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies Hz, powers dBm) from a two-column CSV; a header line is
    skipped if present."""
    freqs, powers = [], []
    for ln in read_text(path, "spectrum CSV").splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        f_s, _, p_s = ln.partition(",")
        try:
            freqs.append(float(f_s))
            powers.append(float(p_s))
        except ValueError:
            if freqs:
                raise ValueError(f"{path}: bad spectrum row {ln!r}") from None
            continue  # header
        if not abs(powers[-1]) < 1000:  # 10 ** (p / 10) overflows past 3082 dBm
            raise ValueError(f"{path}: spectrum row {ln!r} lies outside +/-1000 dBm")
    if len(freqs) < 3:
        raise ValueError(f"{path}: not enough spectrum points")
    return np.asarray(freqs), np.asarray(powers)


def measure_from_spectrum(
    freqs_hz: np.ndarray,
    powers_dbm: np.ndarray,
    f_carrier_hz: float,
    f_mod_hz: float,
) -> SidebandMeasurement:
    """Carrier power and single-sideband ratio read off a measured spectrum.

    The carrier is the nearest point to ``f_carrier_hz``; each sideband is
    the nearest point to carrier +/- ``f_mod_hz``, and the SSB ratio
    averages the two sideband powers (in linear units) before the dB ratio
    is taken.
    """
    freqs = np.asarray(freqs_hz, dtype=float)
    powers = np.asarray(powers_dbm, dtype=float)
    spacing = np.median(np.diff(np.sort(freqs)))

    def nearest(f):
        idx = int(np.argmin(np.abs(freqs - f)))
        if abs(freqs[idx] - f) > max(2.0 * spacing, 1e-6 * f_carrier_hz):
            raise ValueError(
                f"no spectrum point near {f:.6g} Hz (closest "
                f"{freqs[idx]:.6g} Hz)"
            )
        return idx

    k0 = nearest(f_carrier_hz)
    p0 = float(powers[k0])
    p_lo = powers[nearest(freqs[k0] - f_mod_hz)]
    p_hi = powers[nearest(freqs[k0] + f_mod_hz)]
    mean_w = 0.5 * (10.0 ** (p_lo / 10.0) + 10.0 ** (p_hi / 10.0))
    ssb_db = 10.0 * math.log10(mean_w) - p0
    return SidebandMeasurement(p0, ssb_db, f_carrier_hz, f_mod_hz)


@dataclass
class MeasurementSet:
    """Per-line measurements plus chop bookkeeping, as loaded from a
    descriptor file."""

    lines: dict[str, SidebandMeasurement]
    region_ic_fractions: dict[str, float]


def load_measurements(path) -> MeasurementSet:
    """Descriptor INI: one [line.X] section per clock line with ssb_db and
    either p0_dbm or applied_dbm/returned_dbm; a [chop] section with
    f_clock, active_len, zero_len; optional [regions] fractions."""
    ini = IniFile(path, "measurement descriptor")
    f_clock = ini.get("chop", "f_clock")
    active = ini.get("chop", "active_len", int)
    zero = ini.get("chop", "zero_len", int)
    f_mod = located(f"{path}: [chop]", chop_fundamental, f_clock, active, zero)
    lines = {}
    for section, keys in ini.sections.items():
        if not section.startswith("line."):
            if section not in ("chop", "regions"):
                raise ValueError(f"{path}: unknown section [{section}]")
            continue
        name = section.split(".", 1)[1]
        if "p0_dbm" in keys:
            p0 = ini.get(section, "p0_dbm")
        else:
            p0 = p0_from_applied_returned(
                ini.get(section, "applied_dbm"),
                ini.get(section, "returned_dbm"),
            )
        lines[name] = located(
            f"{path}: [{section}]", SidebandMeasurement,
            p0, ini.get(section, "ssb_db"), f_clock, f_mod,
        )
    if not lines:
        raise ValueError(f"{path}: measurement file defines no clock lines")
    fractions = {k: ini.get("regions", k) for k in ini.sections.get("regions", {})}
    return MeasurementSet(lines, fractions)
