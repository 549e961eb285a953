"""Machine-speed correction for command timings.

Small shared machines change speed under the benchmark: the same pure-Python
work can take twice as long for tens of seconds at a time, and each CPU
changes on its own.  Raw wall times of whole runs then differ by tens of
percent between runs of the same code.  Two measures keep the figures
steady:

* before each command the process moves to the currently fastest CPU it is
  allowed on (`sched_setaffinity` on itself only);
* a fixed stdlib kernel is timed just before and just after each command,
  and the command's wall time is scaled by REFERENCE_S over the mean of the
  two readings.

A scaled time is what the command would have taken on a machine where the
kernel takes REFERENCE_S, about the full speed of the machine the baseline
was recorded on.  The kernel never touches lipfree, so no change to the
program can move it.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

# Kernel time at full speed on the baseline machine (Python 3.11, x86-64).
REFERENCE_S = 0.0005


def _kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i % 13 + 1)
    return total


# CPUs sampled before each command; more would only add to the run's time.
MAX_CPUS = 4


class Speedometer:
    def __init__(self):
        pin = getattr(os, "sched_setaffinity", None)
        self.allowed = os.sched_getaffinity(0) if pin else set()
        self.cpus = sorted(self.allowed)[:MAX_CPUS]

    def reading(self) -> float:
        """Seconds the kernel takes now on the current CPU (best of two)."""
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
        return best

    def settle(self) -> float:
        """Move to the fastest allowed CPU and return its reading."""
        if len(self.cpus) < 2:
            return self.reading()
        readings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            readings.append((self.reading(), cpu))
        best, cpu = min(readings)
        os.sched_setaffinity(0, {cpu})
        return best

    def release(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.allowed)

    def timed(self, call):
        """(result, raw seconds, scale) of call(); multiply a time measured
        around the call by scale to correct it for machine speed."""
        before = self.settle()
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        after = self.reading()
        return result, seconds, REFERENCE_S * 2 / (before + after)
