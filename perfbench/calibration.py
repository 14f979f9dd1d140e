"""Machine-speed calibration of the benchmark's timings.

A shared machine can run the same code 1.3-1.8x slower for stretches of
seconds to minutes, whatever the program does.  The benchmark therefore
runs a fixed reference kernel while it measures, and reports each measured
duration scaled by REFERENCE_S over the kernel's mean time around it: a
time in "reference seconds", the time the operation would take on a
machine on which the kernel takes REFERENCE_S.

While a `Clock` is running, a SIGALRM handler runs the kernel every
SAMPLE_EVERY_S seconds, also in the middle of an operation, so that an
operation lasting seconds is calibrated by samples taken during it.  Time
the handler spends in the kernel is subtracted from the operation it
interrupted.  No thread or process is started.

The kernel does what the program mostly does (exact `Fraction` products
and sums keyed through dicts, plus allocation of short-lived objects) and
never calls `rblie`, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# The kernel's typical time on the machine the benchmark was tuned on
# (2 shared vCPUs, Intel Xeon 2.0 GHz, Python 3.11) in its faster periods.
# Pinned, so that reference seconds compare across runs and commits.
REFERENCE_S = 0.0016
SAMPLE_EVERY_S = 0.05
# A duration is calibrated by the kernel runs made during it and within
# this many seconds before its start or after its end.
WINDOW_S = 0.5

_N = 5
_rng = random.Random("perfbench-calibration")
_TENSOR = {(i, j, k): Fraction(_rng.randint(-9, 9), _rng.randint(1, 5))
           for i in range(_N) for j in range(_N) for k in range(_N)}
_VECTOR = [Fraction(_rng.randint(-9, 9), _rng.randint(1, 7)) for _ in range(_N)]


def kernel() -> None:
    """The reference kernel."""
    for _ in range(2):
        out: dict[int, Fraction] = {}
        for (i, j, k), v in _TENSOR.items():
            out[k] = out.get(k, 0) + v * _VECTOR[i] * _VECTOR[j]
        rows = [[Fraction(a, b + 1) for a in range(8)] for b in range(30)]
    del out, rows


class Clock:
    """Runs the kernel on a timer while entered; converts durations
    measured meanwhile to reference seconds.

    A handler run happens between two bytecodes of the interrupted code,
    so it never overlaps a `perf_counter()` call: each kernel run lies
    wholly inside or wholly outside any measured interval.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def _sample(self) -> None:
        self._busy = True
        try:
            start = perf_counter()
            kernel()
            end = perf_counter()
        finally:
            self._busy = False
        self.starts.append(start)
        self.ends.append(end)

    def _on_alarm(self, signum, frame) -> None:
        # A signal that arrives during a kernel run skips its turn, so no
        # run is timed with another nested inside it.
        if not self._busy:
            self._sample()

    def __enter__(self) -> "Clock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def kernel_s(self) -> list[float]:
        return [b - a for a, b in zip(self.starts, self.ends)]

    def _between(self, start: float, end: float) -> range:
        return range(bisect.bisect_left(self.starts, start),
                     bisect.bisect_right(self.ends, end))

    def elapsed(self, start: float, end: float) -> float:
        """end - start less the kernel runs made inside the interval."""
        return end - start - sum(self.ends[i] - self.starts[i]
                                 for i in self._between(start, end))

    def reference(self, start: float, end: float) -> float:
        """The interval's own time (as `elapsed`) in reference seconds."""
        near = self._between(start - WINDOW_S, end + WINDOW_S)
        if not near:
            nearest = min(range(len(self.starts)),
                          key=lambda i: abs(self.starts[i] - start))
            near = range(nearest, nearest + 1)
        mean = statistics.fmean(self.ends[i] - self.starts[i] for i in near)
        return self.elapsed(start, end) * REFERENCE_S / mean
