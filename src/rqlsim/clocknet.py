"""Multisection quarter-wave impedance transformers for the clock feed.

Synthesis follows small-reflection theory with an equal-ripple (Chebyshev)
passband: section reflection coefficients come from expanding
G_m * T_N(sec(theta_m) cos(theta)) in cosines, and section impedances from
ln Z_{k+1} = ln Z_k + 2 G_k.  A maximally-flat (binomial) alternative is
included.  Designs are verified exactly with an ABCD-matrix cascade of ideal
lines, so the synthesized band can be checked against the achieved return
loss rather than the approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as C


# Largest |ln Z_N + 2 G_N - ln z_load| / |ln(z_load / z_source)| accepted.
_CLOSURE_TOL = 1e-6


@dataclass(frozen=True)
class TransformerDesign:
    z_source: float
    z_load: float
    n_sections: int
    f_center_hz: float
    section_impedances: tuple[float, ...]
    ripple_db: float | None = None  # in-band |S11| bound from synthesis
    fractional_bandwidth: float | None = None

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("section,impedance_ohm\n")
            for k, z in enumerate(self.section_impedances, start=1):
                fh.write(f"{k},{z:.6f}\n")


def _chebyshev_gammas(n: int, ln_ratio: float, sec_theta_m: float) -> list[float]:
    """Partial reflection coefficients G_0..G_N from the exact cosine
    expansion of gamma_m * T_N(sec(theta_m) cos(theta))."""
    gamma_m = abs(ln_ratio) / (2.0 * _coshN(n, sec_theta_m))
    # T_N(sec_theta_m * u) as a Chebyshev series in u: scale the power
    # series of T_N, then convert back.
    power = C.cheb2poly([0.0] * n + [1.0])
    power *= sec_theta_m ** np.arange(n + 1)
    a = C.poly2cheb(power)  # T_N(x u) = sum a_k T_k(u), T_k(cos t) = cos kt
    gammas = [0.0] * (n + 1)
    for k in range(n, -1, -2):
        coeff = gamma_m * a[k]
        if k == 0:
            gammas[n // 2] = coeff
        else:
            i = (n - k) // 2
            gammas[i] = coeff / 2.0
            gammas[n - i] = coeff / 2.0
    sign = 1.0 if ln_ratio >= 0 else -1.0
    return [sign * g for g in gammas]


def _binomial_gammas(n: int, ln_ratio: float) -> list[float]:
    total = 2.0 ** n
    return [ln_ratio / 2.0 * math.comb(n, k) / total for k in range(n + 1)]


def _coshN(n: int, x: float) -> float:
    """T_n(x) continued to x >= 1."""
    if x < 1.0:
        return math.cos(n * math.acos(max(-1.0, x)))
    return math.cosh(n * math.acosh(x))


def _acoshT(n: int, value: float) -> float:
    """Inverse of T_n on [1, inf): smallest x with T_n(x) = value."""
    if value <= 1.0:
        return 1.0
    return math.cosh(math.acosh(value) / n)


def design_transformer(
    z_source: float = 50.0,
    z_load: float = 4.0,
    n_sections: int = 6,
    f_center_hz: float = 7.5e9,
    ripple_db: float = -30.0,
    kind: str = "chebyshev",
) -> TransformerDesign:
    """Synthesize a quarter-wave-section impedance ladder.

    ``ripple_db`` is the in-band return-loss target (negative dB); a
    Chebyshev design's bandwidth follows from it and the section count.
    """
    if not (0 < z_source < math.inf and 0 < z_load < math.inf) or z_source == z_load:
        raise ValueError(
            "source and load impedances must be finite, positive and differ, "
            f"got {z_source!r} and {z_load!r}"
        )
    if n_sections < 1:
        raise ValueError("need at least one section")
    if f_center_hz <= 0:
        raise ValueError("center frequency must be positive")
    ln_ratio = math.log(z_load / z_source)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            gammas, ripple, fbw = _gammas(kind, n_sections, ln_ratio, ripple_db)
    except OverflowError:
        gammas = [math.inf]
    # The ladder must end at the load: ln Z_N + 2 G_N = ln z_load.  The
    # cosine expansion loses that in float arithmetic past about 30
    # Chebyshev sections, and 2**N overflows past 1023 binomial ones; this
    # check, not numpy's overflow warnings, reports either.
    if not abs(2.0 * sum(gammas) - ln_ratio) <= _CLOSURE_TOL * abs(ln_ratio):
        raise ValueError(
            f"{n_sections} {kind} sections cannot be synthesized in double "
            "precision; use fewer sections"
        )
    ln_z = math.log(z_source)
    zs = []
    for g in gammas[:-1]:
        ln_z += 2.0 * g
        zs.append(math.exp(ln_z))
    return TransformerDesign(
        z_source,
        z_load,
        n_sections,
        f_center_hz,
        tuple(zs),
        ripple,
        fbw,
    )


def _gammas(kind, n_sections, ln_ratio, ripple_db):
    """Section reflection coefficients G_0..G_N of a design, with its
    in-band ripple and fractional bandwidth (None for binomial)."""
    if kind == "binomial":
        return _binomial_gammas(n_sections, ln_ratio), None, None
    if kind != "chebyshev":
        raise ValueError(f"unknown design kind {kind!r}")
    if not ripple_db < 0:
        raise ValueError(f"ripple must be negative dB, got {ripple_db!r}")
    gamma_m = 10.0 ** (ripple_db / 20.0)
    sec_tm = _acoshT(n_sections, abs(ln_ratio) / (2.0 * gamma_m))
    gammas = _chebyshev_gammas(n_sections, ln_ratio, sec_tm)
    ripple = 20.0 * math.log10(abs(ln_ratio) / (2.0 * _coshN(n_sections, sec_tm)))
    theta_m = math.acos(min(1.0, 1.0 / sec_tm))
    return gammas, ripple, 2.0 - 4.0 * theta_m / math.pi


def cascade_sparams(design: TransformerDesign, frequencies_hz) -> np.ndarray:
    """Exact (S11, S21) of the ideal lossless ladder at each frequency.

    Each section is a quarter wave long at the design center; the chain
    ABCD product is referenced to the source and load impedances.
    """
    freqs = np.atleast_1d(np.asarray(frequencies_hz, dtype=float))
    if np.any(freqs <= 0):
        raise ValueError("frequencies must be positive")
    out = np.empty((len(freqs), 2), dtype=complex)
    zs, zl = design.z_source, design.z_load
    for i, f in enumerate(freqs):
        theta = math.pi / 2.0 * f / design.f_center_hz
        a, b, c, d = 1.0 + 0j, 0.0 + 0j, 0.0 + 0j, 1.0 + 0j
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        for z in design.section_impedances:
            sa, sb = cos_t, 1j * z * sin_t
            sc, sd = 1j * sin_t / z, cos_t
            a, b, c, d = (
                a * sa + b * sc,
                a * sb + b * sd,
                c * sa + d * sc,
                c * sb + d * sd,
            )
        denom = a * zl + b + c * zs * zl + d * zs
        out[i, 0] = (a * zl + b - c * zs * zl - d * zs) / denom
        out[i, 1] = 2.0 * math.sqrt(zs * zl) / denom
    return out


def return_loss_db(s11: np.ndarray) -> np.ndarray:
    """Return loss in positive dB; infinite for a perfect match."""
    mag = np.abs(np.atleast_1d(s11))
    with np.errstate(divide="ignore"):
        return -20.0 * np.log10(mag)


def sweep_to_csv(design: TransformerDesign, frequencies_hz, path) -> None:
    """Touchstone-style CSV: re/im columns per parameter."""
    s = cascade_sparams(design, frequencies_hz)
    with open(path, "w") as fh:
        fh.write("frequency_hz,s11_re,s11_im,s21_re,s21_im\n")
        for f, (s11, s21) in zip(np.atleast_1d(frequencies_hz), s):
            fh.write(
                f"{f:.6g},{s11.real:.9g},{s11.imag:.9g},"
                f"{s21.real:.9g},{s21.imag:.9g}\n"
            )
