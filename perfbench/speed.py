"""The machine's current speed, from a fixed reference kernel.

The shared machine perfbench runs on switches between a fast phase and
one about 1.5x slower, for a second up to whole runs.  A statistic of
one run cannot cancel a phase that covers the run, so every timing is
rescaled by the time a fixed reference kernel takes right next to it:

    scaled = measured * NOMINAL_S / reference_s()

The kernel does the kind of work the stream and decide layers do:
dict updates keyed by strings, a bytecode loop, and a small numpy
gather and bincount.  It is benchmark code, so no change to ``src/``
moves it.  ``NOMINAL_S`` is its time in the fast phase of a 2-core
x86-64 VM (CPython 3.11, numpy 2); scaled times are stated at that
speed.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.93e-3
REPS = 10

_KEYS = [f"k{i:05d}" for i in range(1024)]
_TABLE = np.arange(4096 * 8, dtype=np.int64).reshape(4096, 8)
_INDEX = np.arange(512, dtype=np.int64) * 7919 % 4096


def _kernel(reps: int) -> None:
    for _ in range(reps):
        counts: dict = {}
        for k in _KEYS:
            counts[k] = counts.get(k, 0) + 1
        np.bincount(_TABLE[_INDEX, 3] % 64)


def reference_s(reps: int = REPS) -> float:
    """Seconds the reference kernel takes now.  One untimed pass first
    brings its data back into cache, so what the measured program left
    in the caches does not move the timing."""
    _kernel(1)
    t0 = time.perf_counter()
    _kernel(reps)
    return time.perf_counter() - t0


def slowdown(samples: int = 1) -> float:
    """Current time of the reference over its nominal time (the median
    of ``samples`` timings); above 1 in a slow phase."""
    times = sorted(reference_s() for _ in range(samples))
    return times[len(times) // 2] / NOMINAL_S
