"""Host-speed reference for the benchmark's timings.

On a shared host the speed of a core drifts as other work comes and goes:
on a 2-vCPU Intel Xeon virtual machine, a pure-Python spin loop ran at
levels up to 1.5x apart, switching every second or so, and CPU time moved
with wall time, so it was not the scheduler. A mean over 30 s of wall time
moved by 10-20% between runs of the same code.

RefClock measures how fast the host is while the program runs: every
PERIOD_S a SIGALRM handler (in the main thread, between bytecodes; no
threads) times one solve of a small fixed search, REF_N-queens, written
with the same sets, tuple-keyed dicts, sorts and recursion as the mapper's
placement search. The time the program ran between two such samples,
divided by the median duration of the reference solves around it, is that
stretch of the program in reference solves. `norm` sums it over a timed
call: the call's duration in units of the reference solve, which does not
change when the whole host slows down. The time spent in the handler is
left out of both the raw and the normalised durations.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

PERIOD_S = 0.1
REF_N = 6  # about 1.5 ms a solve, so sampling costs about 1.5% of a run
REF_SOLUTIONS = 4
WINDOW = 5  # reference solves around a stretch whose median is its unit


def reference_solve(n: int) -> int:
    """Count n-queens placements by a depth-first search."""
    cols: set[int] = set()
    diag: set[int] = set()
    anti: set[int] = set()
    place: dict[tuple[int, int], int] = {}
    count = 0

    def go(row: int) -> None:
        nonlocal count
        if row == n:
            count += 1
            return
        for col in sorted(range(n), key=lambda c: (abs(c - n // 2), c)):
            if col in cols or row - col in diag or row + col in anti:
                continue
            cols.add(col)
            diag.add(row - col)
            anti.add(row + col)
            place[row, col] = len(place)
            go(row + 1)
            del place[row, col]
            cols.discard(col)
            diag.discard(row - col)
            anti.discard(row + col)

    go(0)
    return count


class RefClock:
    """Times calls in seconds and in reference solves; see the module doc."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        if reference_solve(REF_N) != REF_SOLUTIONS:
            raise RuntimeError("reference solve gave a wrong count")
        self.samples.append((t0, time.perf_counter()))

    @contextmanager
    def timing(self, into: dict):
        """Time the body; set into["wall_s"] (seconds, without the samples)
        and into["wall_norm"] (reference solves)."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            self._sample()
            start = self.samples[0][1]
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            try:
                yield
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
            end = time.perf_counter()
            self._sample()
        finally:
            signal.signal(signal.SIGALRM, previous)
        into["wall_s"] = end - start - sum(b - a for a, b in self.samples[1:-1])
        into["wall_norm"] = self.norm(self.samples)

    @staticmethod
    def norm(samples: list[tuple[float, float]]) -> float:
        """Sum over the stretches between samples of stretch / local unit."""
        refs = [b - a for a, b in samples]
        total = 0.0
        for i in range(1, len(samples)):
            lo = max(0, i - WINDOW // 2 - 1)
            unit = statistics.median(refs[lo : lo + WINDOW])
            total += (samples[i][0] - samples[i - 1][1]) / unit
        return total
