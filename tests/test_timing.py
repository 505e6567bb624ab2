import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rqlsim import ClockConfig, build_kogge_stone
from rqlsim.gates import DEFAULT_GATE_TABLE, GateKind, junction_delay
from rqlsim.netlist import Gate, Netlist, Pin
from rqlsim.sim import (
    DEFAULT_OVERBIAS,
    arrival_times,
    calibrate_overbias,
    margin_sweep,
    min_operating_bias,
    simulate_timed,
)
from rqlsim.sim.encode import encode
from rqlsim.sim.timing import (
    TimingViolation,
    _flat_envelope,
    _path_envelope,
    check_windows,
)


def accumulated_arrivals(netlist, clock):
    """Reference arrivals: junction and stripline delays added up gate by
    gate in topological order, the latest in-phase fanin first."""
    arr = {}
    d = junction_delay(clock.bias_rel)
    for gid in netlist.topo_order():
        g = netlist.gate(gid)
        t = 0.0
        for pin in g.fanin:
            if netlist.gate(pin.gid).phase == g.phase:
                t = max(t, arr[pin.gid])
        if g.kind is GateKind.PTL_RECEIVER:
            t += g.ptl_um / 100.0
        arr[gid] = t + g.spec.seq_depth * d
    return arr


ORACLE_BIASES = [0.3, 0.77, 0.96, 1.0, 1.1, 1.37, 1.63, 3.7]


class TestArrivals:
    def test_nominal_ten_gigahertz_is_clean(self, adder8):
        clock = ClockConfig(10e9)
        arr, violations = check_windows(adder8, clock)
        assert violations == []
        # eight sequential junctions at 3 ps against the 25 ps window
        assert max(arr.values()) == pytest.approx(24.0)
        assert clock.window_ps == pytest.approx(25.0)

    def test_twelve_gigahertz_violates(self, adder8):
        clock = ClockConfig(12e9)
        assert clock.window_ps == pytest.approx(20.833, abs=1e-3)
        arr, violations = check_windows(adder8, clock)
        assert violations
        # only the phases with the full 8-junction chains miss the window
        for v in violations:
            assert v.arrival_ps == pytest.approx(24.0)
            assert v.slack_ps < 0

    def test_overbias_restores_margin(self, adder8):
        _, violations = check_windows(adder8, ClockConfig(12e9, bias_rel=1.2))
        assert violations == []

    def test_ptl_adds_propagation_time(self):
        base = build_kogge_stone(8, chip_mode=True)
        with_ptl = build_kogge_stone(8, chip_mode=True, ptl_length_um=1000.0)
        clock = ClockConfig(10e9)
        arr_base = arrival_times(base, clock)
        arr_ptl = arrival_times(with_ptl, clock)
        receivers = [
            g for g in with_ptl.gates if g.kind is GateKind.PTL_RECEIVER
        ]
        assert receivers
        for r in receivers:
            # driver (1 junction) + 10 ps stripline + receiver (2 junctions)
            assert arr_ptl[r.gid] == pytest.approx(3.0 + 10.0 + 6.0)
        # the replaced delay cell sat at 2 junctions = 6 ps
        assert max(arr_base.values()) == pytest.approx(24.0)

    def test_missing_ptl_annotation_is_an_error(self):
        from rqlsim.netlist import Gate

        nl = build_kogge_stone(8, ptl_length_um=500.0)
        broken = nl.replace_gates(
            [
                Gate(g.gid, g.spec, g.fanin, g.phase, g.name, g.region, None)
                if g.kind is GateKind.PTL_RECEIVER
                else g
                for g in nl.gates
            ]
        )
        with pytest.raises(ValueError, match="annotation"):
            arrival_times(broken, ClockConfig(10e9))

    @pytest.mark.parametrize("width", [8, 64])
    def test_envelope_equals_accumulation(self, width):
        netlist = build_kogge_stone(width)
        for b in ORACLE_BIASES:
            clock = ClockConfig(10e9, b)
            assert arrival_times(netlist, clock) == accumulated_arrivals(netlist, clock)

    @pytest.mark.parametrize("width, ptl_um", [(8, 300.0), (8, 1000.0), (64, 370.0)])
    def test_envelope_matches_accumulation_with_stripline(self, width, ptl_um):
        netlist = build_kogge_stone(width, chip_mode=True, ptl_length_um=ptl_um)
        for b in ORACLE_BIASES:
            clock = ClockConfig(10e9, b)
            got = arrival_times(netlist, clock)
            want = accumulated_arrivals(netlist, clock)
            assert got.keys() == want.keys()
            for gid, t in want.items():
                assert got[gid] == pytest.approx(t, rel=1e-12)

    def test_simulate_timed_attaches_results(self, adder8):
        trace = simulate_timed(adder8, ClockConfig(10e9), ([1, 3], [2, 4]))
        assert trace.arrivals_ps is not None
        assert trace.violations == []
        assert int(trace.sums[0]) == 3

    @given(st.floats(0.5, 2.0), st.floats(0.0, 1.0))
    def test_violations_monotone_in_bias(self, b, extra):
        nl = _small_netlist()
        f = 14e9
        n_lo = len(check_windows(nl, ClockConfig(f, b))[1])
        n_hi = len(check_windows(nl, ClockConfig(f, b + extra))[1])
        assert n_hi <= n_lo


def envelope_arrivals(netlist, clock):
    """Reference: the largest ``L + S * d`` of each gate's envelope, one
    pair at a time in Python floats."""
    d = junction_delay(clock.bias_rel)
    return {
        gid: max(l + s * d for l, s in front)
        for gid, front in _path_envelope(netlist).items()
    }


ARRAY_NETS = {
    "default64": lambda: build_kogge_stone(64),
    "chip-ptl64": lambda: build_kogge_stone(64, chip_mode=True, ptl_length_um=370.0),
    "idle2-64": lambda: build_kogge_stone(64, idle_phases=2),
}


class TestArrayTiming:
    """Arrivals from one ``maximum.reduceat`` over the flat envelope, and
    the window check as one mask, against pair-by-pair Python."""

    @pytest.mark.parametrize("name", list(ARRAY_NETS))
    def test_same_floats_order_and_violations(self, name):
        netlist = ARRAY_NETS[name]()
        for f in (10e9, 14e9):
            for bias in (0.7, 1.0, 1.3):
                clock = ClockConfig(f, bias)
                want = envelope_arrivals(netlist, clock)
                got = arrival_times(netlist, clock)
                assert list(got.items()) == list(want.items())
                assert all(type(t) is float for t in got.values())

                window = clock.window_ps
                late = [
                    TimingViolation(g.gid, g.name, g.phase, want[g.gid], window)
                    for g in netlist.gates
                    if g.spec.jj_count > 0 and want[g.gid] > window
                ]
                arr, violations = check_windows(netlist, clock)
                assert arr == want
                assert violations == late  # in netlist.gates order


_CACHED = {}


def _small_netlist():
    if "nl" not in _CACHED:
        _CACHED["nl"] = build_kogge_stone(4)
    return _CACHED["nl"]


def _clean(netlist, f, bias):
    return not check_windows(netlist, ClockConfig(f, bias))[1]


def bisection_oracle(netlist, f, ceiling):
    """Reference lower bias: a doubling search for a clean bias when the
    ceiling is infinite, then 100 halvings of [1e-6, clean bias]."""
    if math.isinf(ceiling):
        hi = 1.0
        for _ in range(64):
            if _clean(netlist, f, hi):
                break
            hi *= 2.0
        else:
            return math.nan
    else:
        if not _clean(netlist, f, ceiling):
            return math.nan
        hi = ceiling
    lo = 1e-6
    if _clean(netlist, f, lo):
        return lo
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _clean(netlist, f, mid):
            hi = mid
        else:
            lo = mid
    return hi


def grid_oracle(netlist, f, grid, ceiling):
    """Reference lower bias: the first clean grid point at or below the
    ceiling."""
    for b in sorted(grid):
        if b <= ceiling and _clean(netlist, f, b):
            return b
    return math.nan


def two_path_net(ptl_um=1500.0):
    """One AndOr fed in its own phase by a stripline path (15 ps, 3
    junctions) and by five delay cells (10 junctions).  The stripline path
    limits above about 8.3 GHz, the junction chain below; pairing the
    longest stripline with the most junctions overstates every bias."""
    spec = DEFAULT_GATE_TABLE
    gates = [
        Gate(0, spec[GateKind.SOURCE], (), 0, "A0"),
        Gate(1, spec[GateKind.SOURCE], (), 0, "B0"),
        Gate(2, spec[GateKind.PTL_DRIVER], (Pin(0, 0),), 0, "tx"),
        Gate(3, spec[GateKind.PTL_RECEIVER], (Pin(2, 0),), 0, "rx", ptl_um=ptl_um),
    ]
    prev = Pin(1, 0)
    for gid in range(4, 9):
        gates.append(Gate(gid, spec[GateKind.DELAY], (prev,), 0, f"d{gid}"))
        prev = Pin(gid, 0)
    gates.append(Gate(9, spec[GateKind.ANDOR], (Pin(3, 0), prev), 0, "g"))
    return Netlist(gates, {"A0": 0, "B0": 1}, {"S0": Pin(9, 0)}, 1, 1)


ORACLE_NETS = {
    "adder8": lambda: build_kogge_stone(8),
    "chip8_ptl300": lambda: build_kogge_stone(8, chip_mode=True, ptl_length_um=300.0),
    "chip8_ptl1000": lambda: build_kogge_stone(8, chip_mode=True, ptl_length_um=1000.0),
    "two_path": two_path_net,
}
ORACLE_FREQS = [f * 1e9 for f in range(4, 17)] + [30e9, 40e9]


class TestMargins:
    def test_lower_limit_at_ten_gigahertz(self, adder8):
        b = min_operating_bias(adder8, 10e9)
        assert b == pytest.approx(24.0 / 25.0, rel=1e-9)

    def test_grid_agrees_with_bisection(self, adder8):
        grid = np.linspace(0.5, 1.63, 114)
        b_grid = grid_oracle(adder8, 10e9, grid, DEFAULT_OVERBIAS)
        b_bisect = bisection_oracle(adder8, 10e9, DEFAULT_OVERBIAS)
        b_exact = min_operating_bias(adder8, 10e9)
        assert b_exact == b_bisect
        assert b_exact <= b_grid <= b_exact + (grid[1] - grid[0]) + 1e-12

    @pytest.mark.parametrize("ceiling", [DEFAULT_OVERBIAS, math.inf], ids=["default", "inf"])
    @pytest.mark.parametrize("net", sorted(ORACLE_NETS))
    def test_matches_bisection_oracle(self, net, ceiling):
        netlist = ORACLE_NETS[net]()
        got = [min_operating_bias(netlist, f, ceiling=ceiling) for f in ORACLE_FREQS]
        want = [bisection_oracle(netlist, f, ceiling) for f in ORACLE_FREQS]
        np.testing.assert_array_equal(got, want)
        assert not all(math.isnan(b) for b in got)

    def test_two_path_envelope_keeps_both_paths(self):
        netlist = two_path_net()
        assert _path_envelope(netlist)[9] == ((15.0, 7), (0.0, 14))
        # 4 GHz: the junction chain limits; 12 GHz: the stripline path does
        assert min_operating_bias(netlist, 4e9) == pytest.approx(42.0 / 62.5)
        b12 = min_operating_bias(netlist, 12e9, ceiling=math.inf)
        assert b12 == pytest.approx(21.0 / (1e12 / 12e9 / 4 - 15.0))

    def test_stripline_filling_the_window_is_inoperable(self):
        # 1000 um = 10 ps of stripline is the whole 25 GHz window; a
        # bisection finds a bias (~7e15) only because float rounding
        # absorbs the junction delays there.
        netlist = ORACLE_NETS["chip8_ptl1000"]()
        assert math.isnan(min_operating_bias(netlist, 25e9, ceiling=math.inf))

    @pytest.mark.parametrize(
        "f", [1e12 / 4 / (10.0 + 1e-6), 24.99e9], ids=["1e-6ps", "24.99GHz"]
    )
    def test_floor_is_exact_where_window_barely_exceeds_stripline(self, f):
        # the 10 ps stripline all but fills the window, so the floor lies
        # in the thousands (24.99 GHz) or near 1e7 (1e-6 ps of slack)
        netlist = ORACLE_NETS["chip8_ptl1000"]()
        b = min_operating_bias(netlist, f, ceiling=math.inf)
        assert b > 1e3
        assert b == bisection_oracle(netlist, f, math.inf)
        assert _clean(netlist, f, b)
        assert not _clean(netlist, f, math.nextafter(b, 0.0))
        assert math.isnan(min_operating_bias(netlist, f))

    def test_floor_below_a_tiny_ceiling(self):
        # no junction on any path: every bias is clean, down to the ceiling
        spec = DEFAULT_GATE_TABLE
        gates = [
            Gate(0, spec[GateKind.SOURCE], (), 0, "A0"),
            Gate(1, spec[GateKind.SINK], (Pin(0, 0),), 0, "out"),
        ]
        netlist = Netlist(gates, {"A0": 0}, {}, 1, 1)
        assert min_operating_bias(netlist, 10e9, ceiling=1e-7) == 1e-7
        assert min_operating_bias(netlist, 10e9, ceiling=math.inf) == 1e-6

    def test_lower_limit_scales_linearly_with_frequency(self, adder8):
        b5 = min_operating_bias(adder8, 5e9)
        b10 = min_operating_bias(adder8, 10e9)
        assert b10 == pytest.approx(2.0 * b5, rel=1e-9)

    def test_default_ceiling_reproduces_margin(self, adder8):
        curve = margin_sweep(adder8, [10e9], ceiling=DEFAULT_OVERBIAS)
        assert curve.points[0].width_db == pytest.approx(4.6, abs=0.01)

    def test_calibrated_ceiling_is_exact(self, adder8):
        ceiling = calibrate_overbias(adder8, 10e9, width_db=4.6)
        assert ceiling == pytest.approx(1.6303, abs=1e-3)
        curve = margin_sweep(adder8, [10e9], ceiling=ceiling)
        assert curve.points[0].width_db == pytest.approx(4.6, abs=1e-9)

    def test_upper_limit_frequency_independent(self, adder8):
        freqs = np.linspace(4e9, 16e9, 7)
        curve = margin_sweep(adder8, freqs)
        uppers = {p.upper_db for p in curve.points}
        assert len(uppers) == 1

    def test_width_non_increasing(self, adder8):
        freqs = np.linspace(4e9, 16e9, 13)
        widths = margin_sweep(adder8, freqs).widths()
        assert all(w1 >= w2 - 1e-12 for w1, w2 in zip(widths, widths[1:]))

    def test_inoperable_above_latency_limit(self, adder8):
        # window shrinks below 24 ps at nominal-times-ceiling around 17 GHz
        curve = margin_sweep(adder8, [40e9])
        assert math.isnan(curve.points[0].lower_db)
        assert not curve.points[0].operable

    def test_empty_range_rejected(self, adder8):
        with pytest.raises(ValueError):
            margin_sweep(adder8, [])

    def test_csv_export(self, adder8, tmp_path):
        path = tmp_path / "margins.csv"
        margin_sweep(adder8, [4e9, 10e9]).to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "frequency_hz,lower_db,upper_db,width_db"
        assert len(lines) == 3


class TestDerivedDataOncePerNetlist:
    @pytest.mark.parametrize(
        "derive",
        [
            encode,
            _path_envelope,
            lambda nl: nl.topo_order(),
            _flat_envelope,
            lambda nl: encode(nl).groups,
        ],
        ids=["encode", "path_envelope", "topo_order", "flat_envelope", "groups"],
    )
    def test_second_call_returns_the_same_object(self, derive):
        netlist = build_kogge_stone(4)
        first = derive(netlist)
        assert derive(netlist) is first
        assert derive(netlist.replace_gates(netlist.gates)) is not first
