import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rqlsim.clocknet import (
    cascade_sparams,
    design_transformer,
    return_loss_db,
    sweep_to_csv,
)


def bandwidth_oracle(z1, z2, n, ripple_db):
    """Equal-ripple fractional bandwidth from the closed form, written out
    independently of the library's synthesis."""
    gamma_m = 10.0 ** (ripple_db / 20.0)
    value = abs(math.log(z2 / z1)) / (2.0 * gamma_m)
    sec_tm = math.cosh(math.acosh(value) / n)
    return 2.0 - (4.0 / math.pi) * math.acos(1.0 / sec_tm)


class TestSynthesis:
    def test_single_section_is_the_geometric_mean(self):
        d = design_transformer(50.0, 4.0, n_sections=1, f_center_hz=7.5e9)
        assert d.section_impedances[0] == pytest.approx(math.sqrt(200.0))

    def test_six_section_feed_ladder(self):
        d = design_transformer()
        assert len(d.section_impedances) == 6
        zs = (50.0, *d.section_impedances, 4.0)
        assert all(a > b for a, b in zip(zs, zs[1:]))  # strictly monotone

    def test_reversal_symmetry(self):
        down = design_transformer(50.0, 4.0)
        up = design_transformer(4.0, 50.0)
        assert up.section_impedances == pytest.approx(
            tuple(reversed(down.section_impedances))
        )

    def test_bandwidth_against_oracle(self):
        d = design_transformer()
        want = bandwidth_oracle(50.0, 4.0, 6, -30.0)
        assert d.fractional_bandwidth == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(1.14, abs=0.01)  # theory: about 115%
        assert d.fractional_bandwidth >= 5.0 / 7.5  # covers 5-10 GHz

    def test_binomial_alternative(self):
        d = design_transformer(kind="binomial")
        zs = (50.0, *d.section_impedances, 4.0)
        assert all(a > b for a, b in zip(zs, zs[1:]))
        s = cascade_sparams(d, [7.5e9])
        assert abs(s[0, 0]) < 1e-12  # perfect match at center

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            design_transformer(z_source=50.0, z_load=50.0)
        with pytest.raises(ValueError):
            design_transformer(n_sections=0)
        with pytest.raises(ValueError):
            design_transformer(ripple_db=3.0)

    @pytest.mark.parametrize("kind, n", [("chebyshev", 31), ("binomial", 1023)])
    def test_largest_section_counts_still_close_on_the_load(self, kind, n):
        d = design_transformer(n_sections=n, kind=kind)
        zs = (50.0, *d.section_impedances, 4.0)
        assert len(zs) == n + 2
        assert all(a >= b for a, b in zip(zs, zs[1:]))

    @pytest.mark.parametrize(
        "kind, n", [("chebyshev", 32), ("chebyshev", 60), ("chebyshev", 200),
                    ("binomial", 1024)]
    )
    def test_sections_past_float_precision_are_refused(self, kind, n):
        with pytest.raises(ValueError, match=f"{n} {kind} sections cannot be synthesized"):
            design_transformer(n_sections=n, kind=kind)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 9),
        st.floats(1.5, 30.0),
        st.floats(-45.0, -15.0),
    )
    def test_ladder_properties_hold_generally(self, n, ratio, ripple):
        d = design_transformer(50.0, 50.0 / ratio, n, 1e10, ripple)
        zs = (50.0, *d.section_impedances, 50.0 / ratio)
        assert all(a > b for a, b in zip(zs, zs[1:]))
        rev = design_transformer(50.0 / ratio, 50.0, n, 1e10, ripple)
        assert rev.section_impedances == pytest.approx(
            tuple(reversed(d.section_impedances))
        )


class TestCascade:
    def test_quarter_wave_match_at_center(self):
        d = design_transformer(50.0, 4.0, 1, 7.5e9)
        s = cascade_sparams(d, [7.5e9])
        assert abs(s[0, 0]) < 1e-12

    def test_return_loss_over_the_clock_band(self):
        d = design_transformer()
        freqs = np.linspace(5e9, 10e9, 251)
        rl = return_loss_db(cascade_sparams(d, freqs)[:, 0])
        # designed for 30 dB by small-reflection synthesis; the exact
        # cascade may deviate a little
        assert rl.min() >= 27.0

    def test_lossless_unitarity(self):
        d = design_transformer()
        freqs = np.linspace(0.5e9, 20e9, 101)
        s = cascade_sparams(d, freqs)
        power = np.abs(s[:, 0]) ** 2 + np.abs(s[:, 1]) ** 2
        assert np.max(np.abs(power - 1.0)) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 8), st.floats(2.0, 25.0))
    def test_unitarity_property(self, n, ratio):
        d = design_transformer(50.0, 50.0 / ratio, n, 8e9, -25.0)
        freqs = np.linspace(1e9, 16e9, 31)
        s = cascade_sparams(d, freqs)
        power = np.abs(s[:, 0]) ** 2 + np.abs(s[:, 1]) ** 2
        assert np.max(np.abs(power - 1.0)) < 1e-10

    def test_frequency_validation(self):
        d = design_transformer()
        with pytest.raises(ValueError):
            cascade_sparams(d, [0.0])


class TestExports:
    def test_design_csv(self, tmp_path):
        d = design_transformer()
        path = tmp_path / "xfmr.csv"
        d.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "section,impedance_ohm"
        assert len(lines) == 7

    def test_sweep_csv(self, tmp_path):
        d = design_transformer()
        path = tmp_path / "sweep.csv"
        freqs = np.linspace(5e9, 10e9, 6)
        sweep_to_csv(d, freqs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "frequency_hz,s11_re,s11_im,s21_re,s21_im"
        assert len(lines) == 7
        # round-trip one row numerically
        f0, re, im, *_ = lines[1].split(",")
        s = cascade_sparams(d, [float(f0)])
        assert complex(float(re), float(im)) == pytest.approx(s[0, 0], abs=1e-8)
