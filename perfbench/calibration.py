"""Scaling measured times to a reference machine speed.

The benchmark's host is shared: the same code runs up to twice as fast in
some stretches of time as in others, and a stretch can last longer than a
run.  So the benchmark times a fixed kernel every `INTERVAL` seconds between
operations (and between the calls that build the inputs) and scales each
stretch of work by `REFERENCE_SECONDS` over the mean of the kernel times
taken just before and just after it.  A change to fsub moves the
scaled times exactly as it moves the raw ones, because the kernel does not
call fsub; what the host does to every program alike mostly cancels.

The kernel allocates nothing (dictionary look-ups and arithmetic on small
integers, which CPython caches), so neither the allocator's state nor the
garbage collector's work on the heap fsub builds can change its time.
"""

from __future__ import annotations

from itertools import repeat
from time import perf_counter

# A typical time of the kernel on the machine the recorded baseline comes
# from (a 2.1 GHz Intel Xeon vCPU under CPython 3.11.7).
REFERENCE_SECONDS = 1.5e-3
INTERVAL = 0.1


_TABLE = {i: (i * 37 + 11) % 128 for i in range(128)}


def kernel() -> int:
    h = 0
    get = _TABLE.get
    for _ in repeat(None, 20000):
        h = get(h, 0) ^ ((h + 1) & 127)
    return h


def kernel_seconds() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Calibration:
    """Kernel times taken along a stretch of work, and the stretches of work
    between them."""

    def __init__(self) -> None:
        self.kernel_times = [kernel_seconds()]
        self.segments: list[float] = []
        self._start = perf_counter()

    def mark(self) -> int:
        """Time the kernel again if `INTERVAL` has passed; return the index
        of the kernel time taken just before the work that follows."""
        now = perf_counter()
        if now - self._start >= INTERVAL:
            self.segments.append(now - self._start)
            self.kernel_times.append(kernel_seconds())
            self._start = perf_counter()
        return len(self.kernel_times) - 1

    def close(self) -> None:
        self.segments.append(perf_counter() - self._start)
        self.kernel_times.append(kernel_seconds())

    def scale(self, seconds: float, mark: int) -> float:
        """`seconds` of work done after `mark`, at the reference speed; needs `close`."""
        k = (self.kernel_times[mark] + self.kernel_times[mark + 1]) / 2
        return seconds * REFERENCE_SECONDS / k

    def scaled_total(self) -> float:
        """All the work between the kernel runs, at the reference speed."""
        return sum(self.scale(seconds, i) for i, seconds in enumerate(self.segments))
