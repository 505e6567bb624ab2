"""Correct pass times for the speed the host gave the benchmark.

On a shared host a core's speed follows its neighbours' load: on the
2-vCPU Intel Xeon VM this benchmark was tuned on, one 64-bit
``arrival_times`` pass took 1.2 ms or 2.2 ms, CPU time grew with wall time
(no steal time is reported), each vCPU switched on its own every few
seconds, and slow stretches lasted a minute or more.  A median over 3 s
passes then measures the neighbours: a 30 s run's median pass time varied
by 30-60 % between runs.

A SIGALRM handler therefore runs a fixed reference loop every INTERVAL_S in
the benchmark's own thread, between the workload's bytecodes, and records
how long it took.  A pass's host time, less those loops, divided by the
median loop time of that pass and multiplied by REF_IDLE_S, is the pass
time at the speed the loop has on an idle core.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
# Reference loop time on an idle core of the machine the benchmark was
# tuned on (1st percentile of 28k samples on both vCPUs; the median under
# load was 0.63 ms).
REF_IDLE_S = 0.36e-3


def _reference() -> None:
    d: dict[int, int] = {}
    for i in range(3000):
        d[i % 97] = d.get(i % 97, 0) + i * i % 7


class SpeedProbe:
    """Context manager that samples the reference loop during one pass or
    one set-up."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (start, duration)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference()
        self.ticks.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def pass_times(self, calls: list[tuple[float, float]]) -> tuple[float, float]:
        """Host seconds of the intervals ``(start, end)``, less the reference
        loops run inside them, and the same at idle-core speed."""
        inside = sum(d for t, d in self.ticks if any(a <= t < b for a, b in calls))
        host = sum(b - a for a, b in calls) - inside
        return host, host * REF_IDLE_S / statistics.median(d for _, d in self.ticks)
