"""The calibration loop that calibrated times are measured against.

It imports nothing from the library, so a change to the library cannot
change it. A child ``cml`` process runs it too, to report its own speed.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

RUNS = 3


def calibrate() -> None:
    """Fixed interpreter work: about 0.5 ms on a two-vCPU VM at its faster speed."""
    total = Fraction(0)
    table = {}
    for i in range(1, 170):
        total += Fraction(i % 7, i % 5 + 1)
        table[frozenset(range(i % 13))] = total


def seconds() -> tuple[float, float]:
    """Run the calibration RUNS times with the garbage collector off.

    Returns the fastest run, which a preemption seldom reaches, and the
    seconds spent on all runs. With the collector off, a collection that the
    library's own allocations have made due runs after the calibration, in
    the library's time, and not inside the calibration.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        runs = []
        for _ in range(RUNS):
            begin = time.perf_counter()
            calibrate()
            runs.append(time.perf_counter() - begin)
        return min(runs), time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
