"""Reference seconds: wall time corrected for the host's varying speed.

On a shared host the same code runs at very different speeds from one
moment to the next: other tenants' work on the same physical cores
slows it down, in phases of tens of milliseconds to several seconds.
On a shared 2-vCPU VM the kernel below ran at 205k to 470k events/s
within one second, and the wall rate of a whole 8 s benchmark run
differed by a factor of 1.7 between runs.  No wall-clock rate is steady
under that, however long the run.

``RefClock`` samples the host's speed while the program runs: every
``PERIOD`` wall seconds a SIGALRM handler times a small frozen kernel
(the legacy heapq event loop of calib.py).  A timed span of the program
is then reported in *reference seconds*: its wall time, minus the
kernel's own time, times the mean kernel speed sampled inside the span
over ``NOMINAL_EVENTS_PER_S``.  A reference second is thus the time the
frozen kernel needs for ``NOMINAL_EVENTS_PER_S`` events -- about one
wall second on that VM when no other tenant competes -- and a rate per
reference second is the wall rate the program would reach on a host of
that fixed speed.  The kernel never changes with the program, so a
faster program earns a proportionally higher rate.

Only the untraced measured phase and the set-up builds run under the
clock; the traced run does not, so span self times stay wall time.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter
from typing import Tuple

from calib import _LegacyEventLoop

#: Wall seconds between speed samples.
PERIOD = 0.01
#: Timers the kernel keeps pending, and events it runs per sample.
KERNEL_TIMERS = 16
KERNEL_EVENTS = 150
#: Kernel speed (events/s) that defines one reference second.
NOMINAL_EVENTS_PER_S = 400_000.0

_DELAYS = [((index * 7919) % 1000 + 1) * 1e-5 for index in range(64)]


def kernel_events() -> int:
    """Run the frozen kernel once; return the events it ran."""
    loop = _LegacyEventLoop()
    left = [KERNEL_EVENTS]

    def tick(index: int) -> None:
        left[0] -= 1
        if left[0] > 0:
            loop.call_after(_DELAYS[index & 63], tick, index + 1)

    for index in range(KERNEL_TIMERS):
        loop.call_after(_DELAYS[index], tick, index)
    loop.run()
    return loop._events_run


#: (wall time, samples, kernel wall time, sum of sampled speeds)
Mark = Tuple[float, int, float, float]


class RefClock:
    """Samples the kernel's speed every ``PERIOD`` while active.

    Use as a context manager; ``mark()`` inside it, ``span(a, b)`` to
    turn two marks into (net wall seconds, reference seconds)."""

    def __init__(self) -> None:
        self.samples = 0
        self.kernel_wall = 0.0
        self.speed_sum = 0.0
        self.last_speed = NOMINAL_EVENTS_PER_S
        self._previous = None

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            events = kernel_events()
            elapsed = perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        speed = events / elapsed
        self.samples += 1
        self.kernel_wall += elapsed
        self.speed_sum += speed
        self.last_speed = speed

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> Mark:
        return (perf_counter(), self.samples, self.kernel_wall, self.speed_sum)

    def span(self, start: Mark, end: Mark) -> Tuple[float, float]:
        """Net wall seconds and reference seconds between two marks."""
        net = (end[0] - start[0]) - (end[2] - start[2])
        samples = end[1] - start[1]
        speed = (end[3] - start[3]) / samples if samples else self.last_speed
        return net, net * speed / NOMINAL_EVENTS_PER_S

    def mean_speed_ratio(self) -> float:
        """Mean sampled speed over the nominal one (1.0 if no samples)."""
        if not self.samples:
            return 1.0
        return self.speed_sum / self.samples / NOMINAL_EVENTS_PER_S
