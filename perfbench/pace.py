"""Host pace: how many times slower than nominal the CPU runs right now.

On a shared host the same code runs up to twice as long in one minute as
in the next, in phases that last from seconds to minutes, so wall times
of runs made a few minutes apart differ by more than any bound a change
could be held to.  The benchmark therefore runs on one CPU
(`pin_to_one_cpu`, inherited by every process it starts) and times a fixed
loop of small-Fraction arithmetic next to the work it measures: the kind
of arithmetic the library does, but none of its code, so a change to the
library moves paced times exactly as it moves wall times.  A paced time
is a wall time divided by the pace around it: wall seconds at the pace
where the loop takes its nominal time.

A job is paced by `Sampler`, which samples inside the job's own process
every PERIOD_S while the job runs, so a long job is judged by the pace
during all of it; the time spent sampling is taken out of the job's time.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 1e-5     # seconds per loop iteration at the nominal pace; it sets
                     # only the unit of paced seconds, not any comparison
ITERATIONS = 1000    # of one sample inside a job, about 10 ms
PERIOD_S = 0.25      # between samples inside a job


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU: a pace
    sample on another CPU says little about the contention on this one."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def pace(iterations: int = ITERATIONS) -> float:
    start = time.perf_counter()
    x = Fraction(0)
    for k in range(1, iterations):
        x = Fraction(k % 7, k % 5 + 1) * Fraction(3, 4) - x * Fraction(1, 2) if k % 9 else 0
    return (time.perf_counter() - start) / (iterations * NOMINAL_S)


class Sampler:
    """Pace samples every PERIOD_S of wall time, taken by a SIGALRM handler
    in this process while it is active, and one on entry."""

    def __init__(self):
        self.samples: list = []   # (start, end, pace)

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        p = pace()
        self.samples.append((start, time.perf_counter(), p))

    def __enter__(self) -> Sampler:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def paced(self, start: float, end: float) -> float:
        """Seconds of [start, end], less the sampling in it, at the nominal
        pace: divided by the mean pace of the samples that began in it and
        of the last one before it."""
        before = [s for s in self.samples if s[0] < start][-1:]
        inside = [s for s in self.samples if start <= s[0] < end]
        spent = sum(min(e, end) - s for s, e, _ in inside)
        return (end - start - spent) / statistics.mean(p for _, _, p in before + inside)
