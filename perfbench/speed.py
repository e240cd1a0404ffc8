"""The machine's speed, sampled while the jobs run.

On a shared host a core's speed changes by up to 2.3x every few seconds, and
CPU time follows wall time, so neither measures the program alone.  A
``SIGALRM`` timer fires every ``PERIOD`` seconds; its handler times one
run of a fixed kernel of exact fraction arithmetic, small frozen
dataclasses and hashing, the mix the program spends its time on.  The
handler runs in the main thread between bytecodes, so it samples the
speed inside long jobs too.

A job's reference time is its wall time, less the handler's, scaled by
``REFERENCE`` over the kernel times sampled during and next to the job:
the wall time at the machine's undisturbed speed.  The kernel uses only
the standard library, so no change to the program moves it.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

PERIOD = 0.02
#: ``kernel()`` on an idle core of a 2-core Xeon VM.
REFERENCE = 0.00018


@dataclass(frozen=True)
class _Point:
    a: int
    b: int


def kernel() -> None:
    f, seen = Fraction(0), {}
    for i in range(40):
        f = (f + Fraction(i % 7, 16)) % 2
        p = _Point(f.numerator, i & 15)
        seen[(p, i & 7)] = p


class SpeedClock:
    """Samples the speed while in a ``with`` block."""

    def __init__(self) -> None:
        self.at: list[float] = []       # start of each sample
        self.took: list[float] = []     # its kernel time

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        self.at.append(start)
        self.took.append(perf_counter() - start)

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None:
            time.sleep(2 * PERIOD)      # a sample after the last job
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def times(self, start: float, end: float) -> tuple[float, float]:
        """Wall and reference seconds of ``[start, end)``, without the
        samples taken in it."""
        lo, hi = bisect_left(self.at, start), bisect_left(self.at, end)
        wall = end - start - sum(self.took[lo:hi])
        near = self.took[max(lo - 1, 0):hi + 1]
        return wall, wall * REFERENCE * sum(1 / k for k in near) / len(near)
