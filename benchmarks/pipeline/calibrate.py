"""How fast this host runs right now, from a fixed CPU kernel.

On a shared virtual machine the effective CPU speed drifts, each vCPU
on its own: on the 2-vCPU reference host the same job rep took from
0.85 s to 1.56 s within a few minutes, in slow spells of 10 to 30
seconds that no steal counter shows. The kernel below slows down with
the job: over 150 s, the median rep time of 12-s windows ranged from
0.96 s to 1.56 s while its ratio to the kernel stayed within -5%/+6%.

So every timed rep (and every set-up) is bracketed by this kernel, run
on the CPU the work ran on, and times are reported *normalised*: wall
seconds times ``REFERENCE_S / kernel seconds``, i.e. seconds on the
host at the speed where the kernel takes :data:`REFERENCE_S`. Raw wall
seconds are kept next to them in the result file.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Sequence

import numpy as np

#: Kernel seconds on the reference host (2-vCPU Xeon VM, Python 3.11,
#: numpy 2.4) in its quiet spells; the scale of normalised times.
REFERENCE_S = 0.040


def kernel_seconds(cpus: Sequence[int] = ()) -> float:
    """Seconds of the kernel: on the calling thread's CPU, or with
    ``cpus`` the mean over those CPUs, the thread pinned to each in turn
    (each vCPU of a shared host drifts on its own)."""
    if not cpus:
        return _kernel()
    previous = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_kernel())
        return sum(times) / len(times)
    finally:
        os.sched_setaffinity(0, previous)


def _kernel() -> float:
    """Wall seconds of a fixed mix of interpreter, dict and numpy work —
    the kinds of work the pipeline does — with the collector paused, so
    whatever the caller has on its heap does not change the kernel."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        acc = 0
        table = {}
        for i in range(150_000):
            acc += (i * i) % 7
            table[i & 1023] = acc
        values = np.random.default_rng(1).random(300_000)
        for _ in range(5):
            ordered = np.sort(values)
            np.cumsum(ordered)
            np.searchsorted(ordered, values[:1000])
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def normalised(wall: float, kernel_before: float, kernel_after: float) -> float:
    """``wall`` scaled to the reference speed, using the kernel times
    measured just before and just after it."""
    return wall * REFERENCE_S * 2.0 / (kernel_before + kernel_after)
