"""Operation timing scaled to a nominal machine speed.

The benchmark runs on shared virtual machines whose speed at running Python
code drifts by tens of percent within seconds (on a 2-vCPU Xeon VM a fixed
loop measured between 13.7 and 24.7 ms as 2-second medians over one minute).
A fixed reference loop that does not touch hypersetdb therefore runs before
and after each timed operation.  The CPU part of the operation (process CPU
time, all threads) is scaled by REFERENCE_S over the mean of the two
reference durations; the waiting part (wall time minus CPU time: fetch
latency, sockets) is kept as measured.  The raw wall time is kept as well.
"""

from __future__ import annotations

import contextlib
import gc
import random
from time import perf_counter, process_time
from typing import Optional

# Median duration of reference() on a 2-vCPU 2.1 GHz Xeon virtual machine.
REFERENCE_S = 0.002


def _reference_work() -> None:
    rng = random.Random(5)
    items = [(rng.random(), str(i)) for i in range(2000)]
    items.sort()
    table = {}
    for value, text in items:
        table[text] = (value, text[:2])


def reference() -> float:
    """Time a fixed pure-Python workload (sorting, tuple, string and dict
    building), the second of two runs so that caches are warm, with the
    garbage collector off so that the program's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_work()
        start = perf_counter()
        _reference_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Timing:
    wall = 0.0    # seconds as measured
    scaled = 0.0  # seconds at reference speed


class Clock:
    """Times operations; the reference after one operation serves as the
    reference before the next."""

    def __init__(self) -> None:
        self.last: Optional[float] = None

    @contextlib.contextmanager
    def timed(self, probe: bool = True):
        """With probe=False (operations of microseconds) the last reference
        duration is reused instead of measuring a new one."""
        before = self.last if self.last is not None else reference()
        timing = Timing()
        wall, cpu = perf_counter(), process_time()
        try:
            yield timing
        finally:
            wall, cpu = perf_counter() - wall, process_time() - cpu
            after = reference() if probe else before
            self.last = after
            busy = min(cpu, wall)
            timing.wall = wall
            timing.scaled = busy * REFERENCE_S / ((before + after) / 2) + wall - busy
