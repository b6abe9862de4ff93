"""Machine-speed calibration of every timing the benchmark reports.

A shared machine can change speed in phases that last a minute or more,
by up to 1.7 times, and a phase moves every timing of a run together.
So each worker times a fixed stdlib-only kernel between operations,
outside every timed region, and divides each time by the kernel's speed
around it: a reported time is in seconds of a machine on which the kernel
takes REFERENCE_S.  The kernel never calls the library, so a change to the
library moves the reported times and leaves the calibration alone.

The kernel mixes what the library spends its time on: small tuples and
frozensets as dict and set keys, sorting, and Fraction arithmetic.  It runs
with the cyclic GC off, so that the size of the library's heap does not
change its time.
"""

from __future__ import annotations

import gc
from statistics import median
from time import perf_counter

REFERENCE_S = 0.002  # kernel time that defines one calibrated second
EVERY_S = 0.1  # time between samples during a pass
WINDOW = 10  # a factor is the median of the samples up to WINDOW either side
SETUP_SAMPLES = 7  # taken at once after every set-up; their median scales it


def kernel():
    from fractions import Fraction  # imported here, so no set-up finds it loaded

    d = {}
    s = set()
    acc = Fraction(0)
    for i in range(1, 1200):
        key = (i % 61, i % 17)
        d[key] = d.get(key, 0) + i
        s.add(frozenset((i % 7, i % 11)))
        if i % 8 == 0:
            acc += Fraction(i % 13, i)
    return len(sorted(d.items())) + len(s) + acc.denominator


def sample():
    """The kernel's time, once, with the cyclic GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Kernel samples taken between the ops of one pass."""

    def __init__(self):
        self.samples = []
        self.next_op = []  # the op each sample was taken before; len(ops) at the end
        self.last = None

    def due(self):
        return self.last is None or perf_counter() - self.last >= EVERY_S

    def take(self, next_op):
        self.samples.append(sample())
        self.next_op.append(next_op)
        self.last = perf_counter()

    def factor(self, j):
        """Slowdown against the reference around sample j."""
        return median(self.samples[max(0, j - WINDOW):j + WINDOW + 1]) / REFERENCE_S

    def op_factors(self, n_ops):
        """One factor per op, from the samples around the op."""
        out = []
        j = 0
        for i in range(n_ops):
            while j + 1 < len(self.next_op) and self.next_op[j + 1] <= i:
                j += 1
            out.append(self.factor(j))
        return out

    def overall(self):
        return median(self.samples) / REFERENCE_S
