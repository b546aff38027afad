"""Timings corrected for the speed of a shared host.

On a virtual machine whose physical cores are shared with other tenants,
the same pure-Python work runs up to 1.5x slower for seconds at a time,
and a run of half a minute can fall mostly into a slow or a fast stretch.
A second CPU does not see the same stretches, so the speed has to be
sampled on the CPU the work runs on, while it runs.

``SpeedProbe`` does that: a 20 Hz ``SIGALRM`` timer interrupts the
process and times ``kernel`` (a fixed ~1 ms of dict, tuple and
``Fraction`` work that does not touch pmq).  ``corrected(a, b)`` is the
wall time from ``a`` to ``b`` minus the probes inside it, multiplied by
the mean of ``REF_PROBE_S / probe`` over those probes: the time the work
would have taken at the speed at which ``kernel`` takes ``REF_PROBE_S``.
Probes are equally spaced in wall time, so that mean is the share of
reference speed the work had on average.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left
from fractions import Fraction

clock = time.perf_counter

INTERVAL_S = 0.05
# The median of one ``kernel`` call on the reference machine (see
# README.md); it fixes the scale, not the spread, of corrected times.
REF_PROBE_S = 0.00115


def kernel() -> int:
    table: dict = {}
    acc = Fraction(0)
    for i in range(1500):
        key = ((i * 7919) % 10007, i & 7)
        table[key] = table.get(key, 0) + 1
        if i % 10 == 0:
            acc += Fraction(i % 13 + 1, i % 7 + 1)
    return len(table) + acc.denominator


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.cum = [0.0]        # prefix sums of probe durations
        self.speed = [0.0]      # prefix sums of REF_PROBE_S / duration

    def sample(self, *_) -> None:
        t = clock()
        kernel()
        self.record(t, clock() - t)

    def record(self, t: float, dur: float) -> None:
        self.starts.append(t)
        self.cum.append(self.cum[-1] + dur)
        self.speed.append(self.speed[-1] + REF_PROBE_S / dur)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _window(self, a: float, b: float) -> tuple[int, int]:
        return bisect_left(self.starts, a), bisect_left(self.starts, b)

    def probe_s(self, a: float, b: float) -> float:
        """Time spent in probes that started between ``a`` and ``b``."""
        i, j = self._window(a, b)
        return self.cum[j] - self.cum[i]

    def factor(self, a: float, b: float) -> float:
        """Mean speed relative to the reference over ``[a, b)``; over every
        probe so far when none fell inside (an interval under 50 ms)."""
        i, j = self._window(a, b)
        if i == j:
            i, j = 0, len(self.starts)
        return (self.speed[j] - self.speed[i]) / (j - i)

    def corrected(self, a: float, b: float, factor: float | None = None) -> float:
        """``[a, b)`` without its probes, at reference speed: by default the
        speed measured inside it, else the given ``factor``."""
        return (b - a - self.probe_s(a, b)) * (self.factor(a, b) if factor is None else factor)

    def samples(self) -> int:
        return len(self.starts)
