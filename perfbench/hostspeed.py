"""Host-speed reference: turn wall-clock times into times at a fixed speed.

On a shared host the speed available to one process changes by up to
1.6x within seconds, as other tenants come and go.  A run that happens to
fall in a fast period would read as a gain that the code did not make.
The benchmark therefore times :func:`reference_kernel`, a fixed piece of
work owned by the benchmark, just before and just after each timed section
and, from a ``SIGALRM`` handler, every ``SAMPLE_INTERVAL_S`` inside it.
The section's wall time, less the time its samples took, is scaled by
``REFERENCE_NOMINAL_S`` times the mean kernel speed (1 / kernel time) over
its samples.  The result is the time the section would take on a host
where the kernel takes ``REFERENCE_NOMINAL_S``.  A change to the program
cannot change the kernel, so a real gain or loss passes through the
scaling unchanged.

The kernel mixes the operations that dominate the workloads: small numpy
calls on 25-element rows (one per beam of the codebook), Python
arithmetic, and dict updates.  It touches no state of the program, so
running it inside a section leaves the section's output unchanged.  Its
loop allocates no object that the cyclic GC tracks, and it runs with the
GC disabled, so its time does not depend on the size of the program's
heap and a sample never pays for a collection of it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

REFERENCE_ROUNDS = 6000
REFERENCE_NOMINAL_S = 0.032
"""Kernel time that defines reference speed: about what it takes on a
2-core Intel Xeon shared host (Python 3.11, numpy 2.4)."""

SAMPLE_INTERVAL_S = 0.5

_samples_s = 0.0  # time of every sample taken inside a section so far


def reference_kernel() -> float:
    rng = np.random.default_rng(2020)
    rows = rng.normal(size=(64, 25))
    weights = rng.normal(size=25)
    counts: dict[int, float] = {}
    total = 0.0
    for index in range(REFERENCE_ROUNDS):
        row = rows[index & 63]
        total += float(np.dot(row, weights))
        best = int(np.argmax(row))
        counts[best] = counts.get(best, 0.0) + 1.0
        for value in range(1, 6):
            total += value * 0.5
    return total + sum(counts.values())


def time_reference() -> float:
    """Time one kernel run with the cyclic GC off, so that a collection of
    the program's heap never lands in a sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def program_clock() -> float:
    """``perf_counter()`` less the time of the samples taken inside
    sections: a clock that stands still while a sample runs, for timing
    spans of the program inside a sampled section."""
    return perf_counter() - _samples_s


class Section:
    """One timed section: kernel samples, and wall time without them."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self.inside_s = 0.0  # time spent in samples taken inside the section
        self.wall_s = 0.0

    @property
    def scale(self) -> float:
        """Reference speed over host speed: multiply a wall time taken
        during the section by this to get the time at reference speed."""
        return REFERENCE_NOMINAL_S * statistics.fmean(1.0 / k for k in self.kernel_s)

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


@contextmanager
def sampled(section: Section):
    """Time the ``with`` body into ``section``, sampling host speed just
    before it, every ``SAMPLE_INTERVAL_S`` inside it, and just after it."""

    def sample(signum, frame):
        global _samples_s
        kernel_s = time_reference()
        section.kernel_s.append(kernel_s)
        section.inside_s += kernel_s
        _samples_s += kernel_s

    section.kernel_s.append(time_reference())
    previous = signal.signal(signal.SIGALRM, sample)
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield section
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        elapsed = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
        section.wall_s = elapsed - section.inside_s
        section.kernel_s.append(time_reference())
