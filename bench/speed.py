"""Machine speed during a measurement, from a fixed reference loop.

On a shared machine the speed at which a core runs the same Python code
changes by a factor of two within a minute, and a child process can land
on a core that runs at another speed than its parent's.  No number of ops
per run averages that out, so the benchmark times a fixed reference loop
in the same thread as the work it measures: just before and just after
every timed region, and every ``INTERVAL_S`` from a timer signal while the
work runs.  It then reports each time at reference speed::

    scaled = (measured - time in the reference loop) * REF_NOMINAL_S * mean(1 / reference time)

so a time reads as it would on a machine that runs the reference loop in
exactly ``REF_NOMINAL_S``.  The loop does the program's kind of work:
small rationals, tuples and dictionary updates.  A change to the program
moves the scaled times; the reference loop never changes.

The timer must be stopped before the process writes much to a pipe: a
signal that arrives during a large write can cut the output short.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

#: Reference loop time that scaled times are expressed against (about the
#: median on a 2-core Intel Xeon virtual machine with Python 3.11).
REF_NOMINAL_S = 0.0005
INTERVAL_S = 0.02


def _reference_loop() -> int:
    table: dict[tuple[int, int, int], int] = {}
    total = Fraction(0)
    for i in range(1, 48):
        key = (i % 13, i % 7, i % 5)
        q = Fraction(i % 11 - 5, i % 3 + 1) + Fraction(1, 2)
        table[key] = table.get(key, 0) + q.numerator
        total = q * Fraction(2, 3) - total
    return len(table) + total.denominator


def scale(seconds: float, speed: float) -> float:
    """A measured time at reference speed, given the mean of 1 / reference time."""
    return seconds * REF_NOMINAL_S * speed


class Speedometer:
    """Reference timings of this thread, each logged as (start, end, reference seconds)."""

    def __init__(self) -> None:
        self.log: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        start = perf_counter()
        _reference_loop()
        end = perf_counter()
        self.log.append((start, end, end - start))

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def start_timer(self) -> None:
        """Also sample every INTERVAL_S of wall time, in between the thread's own work."""
        signal.signal(signal.SIGALRM, self._on_timer)
        # restart interrupted system calls instead of failing them with EINTR
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def spent(self, start: float, end: float, first: int = 0) -> float:
        """Seconds between ``start`` and ``end`` that went to the reference loop."""
        return sum(e - s for s, e, _ in self.log[first:] if s >= start and e <= end)

    def speed(self, first: int = 0) -> float:
        """Mean of 1 / reference time over the samples from ``first`` on.

        Sampling is even in time, so this is the mean speed over the period;
        a sample that lost the processor counts as a slow moment.
        """
        refs = [ref for _, _, ref in self.log[first:]]
        return sum(1 / ref for ref in refs) / len(refs)

    def timed(self, fn):
        """Run ``fn``; return its output, its wall seconds and its seconds at reference speed."""
        self.sample()
        first = len(self.log) - 1
        start = perf_counter()
        out = fn()
        end = perf_counter()
        self.sample()
        wall = end - start
        return out, wall, scale(wall - self.spent(start, end, first), self.speed(first))
