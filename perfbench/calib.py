"""Speed calibration: every time the benchmark reports is in reference seconds.

On shared small hosts the speed of a vCPU swings between two levels about
1.6x apart, for stretches from milliseconds to seconds; wall time and CPU
time swing together, so neither cancels it.  The benchmark therefore pins
itself and its child processes to one CPU and, around everything it
times, runs this fixed loop and scales the measured time by
``REF_CHUNK_S / (time per chunk)``.  Work and loop run back to back on the
same CPU, so both see the same speed level, and the scaled time reads in
*reference seconds*: seconds on a host where one chunk takes REF_CHUNK_S.
The loop does not touch the library, so a change to the library moves
scaled times exactly as it moves wall times.
"""

from __future__ import annotations

import math
import os
import time
from typing import Optional

import numpy as np

#: time of one chunk on the reference host (a 2-vCPU Xeon in its slow state)
REF_CHUNK_S = 60e-6
#: calibration after an op, as a share of the op's duration
DUTY = 0.15
#: calibration before and after each child process, in seconds
CHILD_CAL_S = 0.1


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU (Linux only), so the
    calibration loop measures the CPU the timed work ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


_VEC = np.array([0.3, -1.2, 2.0, 0.7])


def chunk() -> float:
    """Scalar float math through Python calls plus small-array numpy calls,
    the library's own mix (scalar root solving; stepping and sampling on
    tiny arrays)."""
    total = 0.0
    for i in range(32):
        z = (i % 17) * 0.37 - 3.0
        total += _sigmoid(z) * _sigmoid(-z)
    for _ in range(4):
        e = np.exp(_VEC * 0.5)
        total += float((np.outer(e, e) / e.sum()).sum())
    return total


def measure(spend: float) -> float:
    """Run chunks for ``spend`` seconds (at least one); return the factor
    that turns seconds measured next to them into reference seconds."""
    spent, n = 0.0, 0
    while n == 0 or spent < spend:
        start = time.perf_counter()
        chunk()
        spent += time.perf_counter() - start
        n += 1
    return REF_CHUNK_S * n / spent


class Scaler:
    """Factors for a sequence of ops: each op's factor averages the
    calibration run after it with the one run after the op before, so a
    long op is bracketed from both sides."""

    def __init__(self):
        self._previous: Optional[float] = None

    def after(self, seconds: float) -> float:
        now = measure(DUTY * seconds)
        both = now if self._previous is None else 0.5 * (self._previous + now)
        self._previous = now
        return both
