"""Machine calibration: the seed's pure-heapq event loop on a fixed mix.

``calib.events_per_s`` lets numbers taken on different machines be put
side by side.  No metric is divided by it and no gate reads it.  The
loop below is a copy of the one embedded in
``benchmarks/bench_e18_fastpath.py``: it is frozen here so the
denominator cannot drift when the repository's own event loop changes.
"""

from __future__ import annotations

import heapq
import itertools
import random
import statistics
import time
from typing import List, Optional

#: Callbacks per calibration pass, and passes per run (median kept).
CALIB_EVENTS = 20_000
CALIB_PASSES = 5


class _LegacyHandle:
    __slots__ = ("time", "_seq", "_callback", "_args", "_cancelled")

    def __init__(self, time: float, seq: int, callback, args) -> None:
        self.time = time
        self._seq = seq
        self._callback = callback
        self._args = args
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        self._callback = _noop
        self._args = ()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def _run(self) -> None:
        self._callback(*self._args)

    def __lt__(self, other: "_LegacyHandle") -> bool:
        return (self.time, self._seq) < (other.time, other._seq)


def _noop() -> None:
    return None


class _LegacyEventLoop:
    """The seed's pure-heapq scheduler (one handle object per event,
    Python-level ``__lt__`` on every sift)."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[_LegacyHandle] = []
        self._seq = itertools.count()
        self._running = False
        self._events_run = 0

    @property
    def now(self) -> float:
        return self._now

    def call_at(self, when: float, callback, *args) -> _LegacyHandle:
        handle = _LegacyHandle(when, next(self._seq), callback, args)
        heapq.heappush(self._queue, handle)
        return handle

    def call_after(self, delay: float, callback, *args) -> _LegacyHandle:
        return self.call_at(self._now + delay, callback, *args)

    def call_soon(self, callback, *args) -> _LegacyHandle:
        return self.call_at(self._now, callback, *args)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        self._running = True
        executed = 0
        try:
            while self._queue:
                if max_events is not None and executed >= max_events:
                    break
                handle = self._queue[0]
                if handle.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and handle.time > until:
                    break
                heapq.heappop(self._queue)
                self._now = handle.time
                handle._run()
                self._events_run += 1
                executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now


def _one_pass(seed: int) -> float:
    """Events/s of one pass: self-rescheduling timers with random
    delays (a steady queue of ~1000 pending events) plus one cancel
    for every fourth event."""
    loop = _LegacyEventLoop()
    rng = random.Random(seed)
    delays = [rng.expovariate(1 / 0.01) for _ in range(4096)]
    remaining = [CALIB_EVENTS]

    def tick(index: int) -> None:
        remaining[0] -= 1
        if remaining[0] <= 0:
            return
        handle = loop.call_after(delays[index & 4095], tick, index + 7)
        if index & 3 == 0:
            handle.cancel()
            loop.call_after(delays[(index + 1) & 4095], tick, index + 1)

    for i in range(1000):
        loop.call_after(delays[i], tick, i)
    started = time.perf_counter()
    loop.run()
    elapsed = time.perf_counter() - started
    return loop._events_run / elapsed


def events_per_second(seed: int = 0) -> float:
    """Median events/s of the legacy loop over ``CALIB_PASSES`` passes."""
    return statistics.median(_one_pass(seed + i) for i in range(CALIB_PASSES))
