"""Machine-speed calibration for the benchmark's timings.

On a shared VM the speed at which one core runs Python can change by a
factor of two within a minute, for all processes alike.  A fixed
reference loop, timed right before and after each measured op, tracks
that speed; a measured time t is reported as t * NOMINAL_S / r, where r
is the median reference time around it: the time the op would have
taken on a machine that runs the reference loop in NOMINAL_S.  The raw
times are printed as well.

The loop mixes Fraction arithmetic, tuple keys and dict updates, the
operations the package's inner loops are made of.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.010   # about the loop's median on the machine the benchmark was defined on
BATCH = 3           # reference samples per measurement point


def reference_s():
    """Wall time of one run of the reference loop."""
    t = time.perf_counter()
    acc = {}
    for i in range(1, 1500):
        x = Fraction(i % 17 + 1, i % 5 + 1) * Fraction(i % 7 + 1, 3) - Fraction(1, i % 11 + 1)
        k = (i % 97, i % 13)
        acc[k] = acc.get(k, 0) + x
    return time.perf_counter() - t


def batch():
    return [reference_s() for _ in range(BATCH)]


def factor(*batches):
    """Scale turning a time measured between these batches into
    calibrated seconds."""
    return NOMINAL_S / statistics.median(s for b in batches for s in b)
