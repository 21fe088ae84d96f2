"""Host-speed sampling, so that reported times do not drift with the machine.

On a shared virtual machine the same pure-Python work can take 1.7 times
longer from one minute to the next, and the slow spells come and go within
one job. A ``SpeedSampler`` runs a fixed stdlib-only chunk of work (dict,
tuple and ``Fraction`` operations, about 1 ms) from a ``SIGALRM`` handler
every ``PERIOD_S`` seconds, on the benchmark's own thread, and records how
long each chunk took.

``normalized(t0, t1)`` turns a wall interval into seconds at the reference
speed, at which one chunk takes ``REFERENCE_CHUNK_S``: it removes the time
the sampler itself spent inside the interval and scales the rest by
``REFERENCE_CHUNK_S / median chunk time`` around the interval. The chunk does
not use the package under test, so a change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
REFERENCE_CHUNK_S = 0.001
MARGIN_S = 0.25  # chunks this close to an interval also describe its speed


def _chunk():
    table = {}
    for i in range(300):
        key = (i % 211, (i * 7) % 193)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 13 - 6, i % 5 + 1)
    return table


class SpeedSampler:
    """Times a fixed chunk of work every ``PERIOD_S`` seconds while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.busy_before: list[float] = [0.0]  # prefix sums of durations
        self.on_sample = None  # called with each chunk's duration

    def _tick(self, signum, frame):
        t0 = time.monotonic()
        _chunk()
        duration = time.monotonic() - t0
        self.starts.append(t0)
        self.durations.append(duration)
        self.busy_before.append(self.busy_before[-1] + duration)
        if self.on_sample is not None:
            self.on_sample(duration)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds the sampler spent in chunks that started inside [t0, t1)."""
        i, j = self._range(t0, t1)
        return self.busy_before[j] - self.busy_before[i]

    def chunk_time(self, t0: float, t1: float) -> float:
        """Median chunk time around [t0, t1); needs a chunk within the margin."""
        i, j = self._range(t0 - MARGIN_S, t1 + MARGIN_S)
        if i == j:
            raise RuntimeError("no speed sample near the interval")
        return statistics.median(self.durations[i:j])

    def normalized(self, t0: float, t1: float) -> float:
        """Seconds the interval would take at the reference speed."""
        return (t1 - t0 - self.busy(t0, t1)) * REFERENCE_CHUNK_S / self.chunk_time(t0, t1)

    def settle(self):
        """Let the sampler take the samples that follow the last interval."""
        time.sleep(MARGIN_S + 2 * PERIOD_S)
