"""Discrete-event simulation core.

The DASH system of the paper ran on real machines; this reproduction runs
on a deterministic discrete-event simulator.  :class:`EventLoop` keeps a
timer queue of timestamped callbacks.  All timing-sensitive behaviour in
the library (delay bounds, deadlines, retransmission timers, CPU
scheduling) is expressed through this single clock, which makes every
experiment reproducible bit-for-bit from its random seed.

Times are floats in *seconds* of simulated time.

Implementation: a hybrid calendar-wheel / heap timer queue.  Events due
*now* (``call_soon`` and ``call_at(now)``) go to a plain FIFO deque --
the dominant case on the protocol fast path, serviced without any heap
comparison.  Future events within the wheel horizon are hashed by
timestamp into one of ``_WHEEL_SLOTS`` per-slot heaps of
``(time, seq, handle)`` tuples, so ordering comparisons happen on
C-level tuples rather than via ``EventHandle.__lt__``.  Events beyond
the horizon wait in a single overflow heap and migrate into the wheel as
the clock advances.  The dispatch order is the exact total order of the
original single-heap implementation -- ``(time, seq)`` with FIFO at
equal timestamps -- so seeded runs reproduce bit-identically.

Cancelled events are removed lazily; when more than a quarter of the
queued entries are dead the queue compacts in place.  Executed handles
are recycled through a free pool when the caller kept no reference
(checked via ``sys.getrefcount``), so steady-state scheduling allocates
nothing.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from bisect import bisect_right
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.errors import SchedulingError

__all__ = [
    "DEFAULT_IDLE_MAX_EVENTS",
    "EventHandle",
    "EventLoop",
    "GroupTimer",
    "Signal",
    "TimerGroup",
]

#: Runaway guard shared by every drain-until-idle entry point
#: (``EventLoop.run_while_pending``/``run_until_idle``, ``SimContext``,
#: ``DashSystem``) so the layers cannot drift apart.
DEFAULT_IDLE_MAX_EVENTS = 10_000_000

# Wheel geometry: 512 slots of 1 ms cover a 512 ms horizon, comfortably
# wider than any single timer used by the protocol stack (propagation
# delays, retransmission timers, delay bounds are all well under that).
_WHEEL_SLOTS = 512
_WHEEL_GRANULARITY = 0.001

# Compaction threshold: rebuild the queue when at least _COMPACT_MIN
# cancelled entries make up over a quarter of everything queued.
_COMPACT_MIN = 64

# Handle free-pool bound; beyond this, executed handles are simply
# dropped for the garbage collector.
_POOL_CAP = 4096

_getrefcount = getattr(sys, "getrefcount", None)

_INF = float("inf")


class EventHandle:
    """A cancellable reference to one scheduled callback."""

    __slots__ = ("time", "_seq", "_callback", "_args", "_cancelled",
                 "_queued", "_loop")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
    ) -> None:
        self.time = time
        self._seq = seq
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._queued = False
        self._loop: Optional["EventLoop"] = None

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        self._callback = _noop
        self._args = ()
        if self._queued and self._loop is not None:
            self._loop._note_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def _run(self) -> None:
        self._callback(*self._args)

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self._seq) < (other.time, other._seq)

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} {state}>"


def _noop() -> None:
    return None


def _no_refcount(_obj: Any) -> int:
    """Stand-in when ``sys.getrefcount`` is unavailable (non-CPython):
    reports an impossible count so handles are never recycled."""
    return 0


class EventLoop:
    """A deterministic discrete-event scheduler.

    Events scheduled for the same instant run in scheduling order (FIFO),
    which keeps protocol traces deterministic.
    """

    def __init__(self, start_time: float = 0.0, batch_dispatch: bool = True) -> None:
        self._now = float(start_time)
        self._seq = itertools.count()
        self._running = False
        self._events_run = 0
        #: Batch dispatch drains the now-bucket and each due wheel slot as
        #: one block (bulk accounting, no per-entry heappop).  The flag
        #: exists for the E20 ablation and for the trace-equivalence
        #: tests; both modes execute the identical (time, seq) order.
        self._batch_dispatch = batch_dispatch
        #: True when the previous run() stopped because the next live
        #: event lay beyond the idle grace, rather than on an exhausted
        #: event budget (run_while_pending distinguishes the two).
        self._stopped_on_grace = False
        # Timer queue state -- see the module docstring.
        self._bucket: Deque[EventHandle] = deque()
        self._slots: List[List[Tuple[float, int, EventHandle]]] = [
            [] for _ in range(_WHEEL_SLOTS)
        ]
        self._far: List[Tuple[float, int, EventHandle]] = []
        self._gran = _WHEEL_GRANULARITY
        self._inv_gran = 1.0 / _WHEEL_GRANULARITY
        self._base = int(self._now * self._inv_gran)
        # Occupancy hint: no occupied wheel slot has an absolute index in
        # [_base, _scan_slot), so the next-event scan may start there
        # instead of walking every empty slot from the origin each
        # iteration.  Maintained by insertions (which may lower it) and
        # by the scan itself (which raises it past empty slots).
        self._scan_slot = self._base
        #: Absolute slot number whose list is known fully sorted (the
        #: remainder of a batch cut stays sorted), or -1.  Lets repeated
        #: batch drains of one dense slot skip the re-sort; every push
        #: into the slot and every structural rebuild invalidates it.
        self._sorted_slot = -1
        #: True while a dispatch batch is mid-execution: its entries are
        #: outside every container, so compaction (which rebuilds the
        #: counters from the containers) must wait for the batch to end.
        self._in_batch = False
        #: Last entry of the single-pass batch in progress: its _queued
        #: flag stays set until the batch reaches it (see advance_to).
        self._batch_last: Optional[EventHandle] = None
        #: Run-ahead limits of the active run(): the latest reachable
        #: time and the idle grace.  -inf while no run() is active or
        #: while a max_events budget is (see advance_to).
        self._ahead_until = -_INF
        self._ahead_grace = _INF
        self._wheel_count = 0
        self._queued_count = 0
        self._cancelled_in_queue = 0
        self._pool: List[EventHandle] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_run(self) -> int:
        """Number of callbacks executed so far (for tests and tracing)."""
        return self._events_run

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return self._queued_count - self._cancelled_in_queue

    @property
    def queue_depth(self) -> int:
        """Total queued entries, including cancelled ones awaiting
        compaction (introspection for tests and telemetry)."""
        return self._queued_count

    # -- scheduling ----------------------------------------------------

    def _acquire(
        self, when: float, callback: Callable[..., None], args: Tuple[Any, ...]
    ) -> EventHandle:
        pool = self._pool
        if pool:
            handle = pool.pop()
            handle.time = when
            handle._seq = next(self._seq)
            handle._callback = callback
            handle._args = args
            handle._cancelled = False
        else:
            handle = EventHandle(when, next(self._seq), callback, args)
            handle._loop = self
        handle._queued = True
        self._queued_count += 1
        return handle

    def call_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        now = self._now
        if when < now:
            raise SchedulingError(
                f"cannot schedule event at {when:.6f}, now is {now:.6f}"
            )
        handle = self._acquire(when, callback, args)
        if when == now:
            self._bucket.append(handle)
        else:
            slot_no = int(when * self._inv_gran)
            if slot_no - self._base < _WHEEL_SLOTS:
                if self._batch_dispatch:
                    # Batched slots are plain dirty lists: O(1) appends
                    # here, one lazy sort when the dispatch scan reaches
                    # the slot -- half the ordering work of push+drain
                    # heap discipline, and cheaper scheduling on the
                    # message path.
                    self._slots[slot_no % _WHEEL_SLOTS].append(
                        (when, handle._seq, handle)
                    )
                else:
                    heapq.heappush(
                        self._slots[slot_no % _WHEEL_SLOTS],
                        (when, handle._seq, handle),
                    )
                self._wheel_count += 1
                if slot_no < self._scan_slot:
                    self._scan_slot = slot_no
                if slot_no == self._sorted_slot:
                    self._sorted_slot = -1
            else:
                heapq.heappush(self._far, (when, handle._seq, handle))
        return handle

    def call_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current time, after pending
        same-time events."""
        handle = self._acquire(self._now, callback, args)
        self._bucket.append(handle)
        return handle

    def advance_to(self, when: float) -> bool:
        """Run ahead: move the clock straight to ``when`` instead of
        scheduling an event there, if that event would run next.

        A callback that is about to schedule its own continuation at
        ``when`` (and do nothing else after it) may call this instead.
        It returns True -- the clock now reads ``when`` and one event is
        counted -- only when the running :meth:`run` would dispatch that
        event next: nothing is queued at or before ``when`` (live or
        cancelled, in the now-bucket, the rest of the current dispatch
        batch, the wheel or the overflow heap; a tie declines, since
        every queued entry has the lower seq), ``when`` is within the
        run's ``until`` and ``idle_grace``, and no ``max_events`` budget
        is active.  On False nothing changed and the caller schedules
        the event as usual.  Skipping the event drops one seq number and
        keeps every other event's relative ``(time, seq)`` order, so
        dispatch order, clock readings and ``events_run`` are those of
        the scheduled run.
        """
        if when > self._ahead_until:
            return False
        if when - self._now > self._ahead_grace:
            return False
        if self._bucket or (self._in_batch and self._batch_last._queued):
            return False
        slot_no = int(when * self._inv_gran)
        base = self._base
        if self._wheel_count:
            if slot_no - base >= _WHEEL_SLOTS:
                return False
            slots = self._slots
            start = self._scan_slot
            if start < base:
                start = base
            while start < slot_no:
                if slots[start % _WHEEL_SLOTS]:
                    return False
                start += 1
            self._scan_slot = start
            slot = slots[slot_no % _WHEEL_SLOTS]
            if slot:
                if self._batch_dispatch and slot_no != self._sorted_slot:
                    slot.sort()
                    self._sorted_slot = slot_no
                if slot[0][0] <= when:
                    return False
        far = self._far
        if far and far[0][0] <= when:
            return False
        self._now = when
        if slot_no > base:
            self._rebase()
        self._events_run += 1
        return True

    # -- queue maintenance ---------------------------------------------

    def _rebase(self) -> None:
        """Advance the wheel origin to the current time and migrate
        overflow events that fell inside the horizon."""
        slot_no = int(self._now * self._inv_gran)
        if slot_no > self._base:
            self._base = slot_no
        far = self._far
        if far:
            horizon = self._base + _WHEEL_SLOTS
            inv_gran = self._inv_gran
            slots = self._slots
            batched = self._batch_dispatch
            while far and int(far[0][0] * inv_gran) < horizon:
                entry = heapq.heappop(far)
                slot_no = int(entry[0] * inv_gran)
                if batched:
                    slots[slot_no % _WHEEL_SLOTS].append(entry)
                else:
                    heapq.heappush(slots[slot_no % _WHEEL_SLOTS], entry)
                self._wheel_count += 1
                if slot_no < self._scan_slot:
                    self._scan_slot = slot_no
                if slot_no == self._sorted_slot:
                    self._sorted_slot = -1

    def _note_cancel(self) -> None:
        self._cancelled_in_queue += 1
        if self._in_batch:
            return  # compaction resumes at the next cancel after the batch
        count = self._cancelled_in_queue
        if count >= _COMPACT_MIN and count * 4 >= self._queued_count:
            self._compact()

    def _release(self, dropped: List[EventHandle]) -> None:
        """Recycle handles nobody else references.  Mutates structures in
        place only -- safe mid-``run``."""
        pool = self._pool
        getref = _getrefcount
        while dropped:
            handle = dropped.pop()
            if (
                getref is not None
                and len(pool) < _POOL_CAP
                and getref(handle) == 2
            ):
                pool.append(handle)

    def _compact(self) -> None:
        """Physically remove cancelled entries.  All containers are
        filtered in place so references hoisted by a running ``run()``
        stay valid."""
        dropped: List[EventHandle] = []
        bucket = self._bucket
        if bucket:
            kept = []
            for handle in bucket:
                if handle._cancelled:
                    handle._queued = False
                    dropped.append(handle)
                else:
                    kept.append(handle)
            bucket.clear()
            bucket.extend(kept)
        wheel_count = 0
        for slot in self._slots:
            if not slot:
                continue
            live = [entry for entry in slot if not entry[2]._cancelled]
            if len(live) != len(slot):
                for entry in slot:
                    if entry[2]._cancelled:
                        entry[2]._queued = False
                        dropped.append(entry[2])
                slot[:] = live
                if not self._batch_dispatch:
                    heapq.heapify(slot)
            wheel_count += len(live)
        far = self._far
        if far:
            live = [entry for entry in far if not entry[2]._cancelled]
            if len(live) != len(far):
                for entry in far:
                    if entry[2]._cancelled:
                        entry[2]._queued = False
                        dropped.append(entry[2])
                far[:] = live
                heapq.heapify(far)
        self._wheel_count = wheel_count
        self._queued_count = len(bucket) + wheel_count + len(far)
        self._cancelled_in_queue = 0
        self._sorted_slot = -1
        self._release(dropped)

    # -- dispatch ------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        idle_grace: Optional[float] = None,
    ) -> float:
        """Run events in time order.

        Stops when the queue is empty, when the next event lies beyond
        ``until`` (the clock then advances exactly to ``until``), when the
        next live event is more than ``idle_grace`` seconds past the
        current clock (the clock stays at the last executed event), or
        after ``max_events`` callbacks.  Returns the simulated time at
        which the run stopped.  ``until`` and ``idle_grace`` are mutually
        exclusive.
        """
        if self._running:
            raise SchedulingError("event loop is already running (reentrant run())")
        if idle_grace is not None:
            if until is not None:
                raise SchedulingError(
                    "run() takes either until or idle_grace, not both"
                )
            if idle_grace < 0:
                raise SchedulingError(f"negative idle_grace {idle_grace!r}")
        self._running = True
        self._stopped_on_grace = False
        if max_events is None:
            self._ahead_until = _INF if until is None else until
            self._ahead_grace = _INF if idle_grace is None else idle_grace
        executed = 0
        ran = 0
        budget = -1 if max_events is None else max_events
        batched = self._batch_dispatch
        # Hoisted locals: every container is mutated strictly in place
        # (including by _compact), so these bindings stay valid across
        # arbitrary callback re-entry into the scheduler.
        bucket = self._bucket
        bucket_popleft = bucket.popleft
        slots = self._slots
        far = self._far
        pool = self._pool
        getref = _getrefcount or _no_refcount
        heappop = heapq.heappop
        inf = float("inf")
        self._rebase()
        try:
            while True:
                now = self._now
                # Next wheel/overflow event, if any.  The slot hash is
                # monotone in time, so the first occupied slot from the
                # wheel origin holds the wheel minimum.
                nxt_slot = None
                nxt_time = 0.0
                if self._wheel_count:
                    base = self._base
                    start = self._scan_slot
                    if start < base:
                        start = base
                    for slot_no in range(start, base + _WHEEL_SLOTS):
                        slot = slots[slot_no % _WHEEL_SLOTS]
                        if slot:
                            if batched and slot_no != self._sorted_slot:
                                # Batched slots are append-only dirty
                                # lists; the scan is the single point
                                # that orders them (a sorted list is a
                                # valid min-view, and the memo makes
                                # repeat visits free).
                                slot.sort()
                                self._sorted_slot = slot_no
                            nxt_slot = slot
                            nxt_time = slot[0][0]
                            self._scan_slot = slot_no
                            break
                if far and (nxt_slot is None or far[0][0] < nxt_time):
                    nxt_slot = far
                    nxt_time = far[0][0]
                    in_far = True
                else:
                    in_far = False
                if nxt_slot is not None and nxt_time <= now:
                    # Timer events that became due: they predate (in seq
                    # order) anything in the now-bucket, so drain them
                    # first.
                    if batched and not in_far:
                        # Batch dispatch: the scan already sorted this
                        # slot, so the due prefix splits off in one
                        # bisect + slice (the (now, inf) boundary never
                        # compares handles), the whole block is accounted
                        # at once, then executed.  Execution order is the
                        # exact heappop order of the per-entry path.
                        hi = bisect_right(nxt_slot, (now, inf))
                        batch = nxt_slot[:hi]
                        del nxt_slot[:hi]
                        self._queued_count -= hi
                        self._wheel_count -= hi
                        if budget < 0 or budget - ran >= hi:
                            # The whole block fits in the budget: one
                            # pass, no per-event budget checks or
                            # counter updates.  Flags clear as entries
                            # are consumed; a mid-batch cancel() of a
                            # later entry still counts into the gauge
                            # (its flag is still set) and is reconciled
                            # via `skipped` below -- _note_cancel defers
                            # compaction while _in_batch, since these
                            # entries are outside every container it
                            # would rebuild from.  Recycling compares
                            # against 3 because the batch entry tuple
                            # still holds one reference.
                            self._batch_last = batch[-1][2]
                            self._in_batch = True
                            skipped = 0
                            for entry in batch:
                                handle = entry[2]
                                handle._queued = False
                                if handle._cancelled:
                                    skipped += 1
                                    continue
                                args = handle._args
                                if args:
                                    handle._callback(*args)
                                else:
                                    handle._callback()
                                if len(pool) < _POOL_CAP and getref(handle) == 3:
                                    # _acquire overwrites the fields; no
                                    # need to clear them first.  Handles
                                    # not recycled die with the batch
                                    # list, so eager field clearing is
                                    # skipped here too -- a handle the
                                    # caller retained releases its
                                    # closure at the next GC instead.
                                    pool.append(handle)
                            self._in_batch = False
                            if skipped:
                                self._cancelled_in_queue -= skipped
                            live = hi - skipped
                            executed += live
                            ran += live
                        else:
                            # Budget may lapse mid-batch: two passes, so
                            # every flag is already clear when a requeue
                            # restores the unexecuted tail, with a
                            # per-event budget check.
                            if self._cancelled_in_queue:
                                dead = 0
                                for entry in batch:
                                    handle = entry[2]
                                    handle._queued = False
                                    if handle._cancelled:
                                        dead += 1
                                if dead:
                                    self._cancelled_in_queue -= dead
                            else:
                                for entry in batch:
                                    entry[2]._queued = False
                            for idx, entry in enumerate(batch):
                                handle = entry[2]
                                if not handle._cancelled:
                                    if ran == budget:
                                        self._requeue_slot(
                                            nxt_slot, batch, idx, entry
                                        )
                                        raise _Stop
                                    handle._callback(*handle._args)
                                    executed += 1
                                    ran += 1
                                    handle._callback = _noop
                                    handle._args = ()
                                if len(pool) < _POOL_CAP and getref(handle) == 3:
                                    pool.append(handle)
                        continue
                    while nxt_slot and nxt_slot[0][0] <= now:
                        if ran == budget:
                            raise _Stop
                        handle = heappop(nxt_slot)[2]
                        self._queued_count -= 1
                        if not in_far:
                            self._wheel_count -= 1
                        handle._queued = False
                        if handle._cancelled:
                            self._cancelled_in_queue -= 1
                        else:
                            handle._callback(*handle._args)
                            executed += 1
                            ran += 1
                            handle._callback = _noop
                            handle._args = ()
                        if (
                            getref is not None
                            and len(pool) < _POOL_CAP
                            and getref(handle) == 2
                        ):
                            pool.append(handle)
                    continue
                if bucket:
                    # The fast path: call_soon events at the current
                    # instant, FIFO, no heap involved.
                    if batched:
                        # Batch dispatch: snapshot the whole bucket in one
                        # C-level copy and account for it as a block.
                        # Events appended by the callbacks land in the
                        # emptied deque and drain on the next round --
                        # the same FIFO order the per-entry path yields.
                        while bucket:
                            batch = list(bucket)
                            bucket.clear()
                            n = len(batch)
                            self._queued_count -= n
                            if budget < 0 or budget - ran >= n:
                                # Single pass; same reconciliation as
                                # the slot batch above.
                                self._batch_last = batch[-1]
                                self._in_batch = True
                                skipped = 0
                                for handle in batch:
                                    handle._queued = False
                                    if handle._cancelled:
                                        skipped += 1
                                        continue
                                    args = handle._args
                                    if args:
                                        handle._callback(*args)
                                    else:
                                        handle._callback()
                                    if len(pool) < _POOL_CAP and getref(handle) == 3:
                                        pool.append(handle)
                                self._in_batch = False
                                if skipped:
                                    self._cancelled_in_queue -= skipped
                                live = n - skipped
                                executed += live
                                ran += live
                            else:
                                # Two passes (see the slot batch above).
                                if self._cancelled_in_queue:
                                    dead = 0
                                    for handle in batch:
                                        handle._queued = False
                                        if handle._cancelled:
                                            dead += 1
                                    if dead:
                                        self._cancelled_in_queue -= dead
                                else:
                                    for handle in batch:
                                        handle._queued = False
                                for idx, handle in enumerate(batch):
                                    if not handle._cancelled:
                                        if ran == budget:
                                            self._requeue_bucket(batch, idx, handle)
                                            raise _Stop
                                        handle._callback(*handle._args)
                                        executed += 1
                                        ran += 1
                                        handle._callback = _noop
                                        handle._args = ()
                                    if len(pool) < _POOL_CAP and getref(handle) == 3:
                                        pool.append(handle)
                        continue
                    while bucket:
                        if ran == budget:
                            raise _Stop
                        handle = bucket_popleft()
                        self._queued_count -= 1
                        handle._queued = False
                        if handle._cancelled:
                            self._cancelled_in_queue -= 1
                        else:
                            handle._callback(*handle._args)
                            executed += 1
                            ran += 1
                            handle._callback = _noop
                            handle._args = ()
                        if (
                            getref is not None
                            and len(pool) < _POOL_CAP
                            and getref(handle) == 2
                        ):
                            pool.append(handle)
                    continue
                if nxt_slot is None:
                    break
                if nxt_slot[0][2]._cancelled:
                    # Discard dead queue heads without advancing the
                    # clock -- matches the original lazy-cancel heap,
                    # where skipped events never moved `now`.  Batch
                    # dispatch amortizes consecutive dead heads into one
                    # pass.
                    if batched and not in_far:
                        # Scan-sorted slot: strip the dead prefix with
                        # one slice (keeps sortedness, so the memo
                        # stays valid).  Recycling compares against 3
                        # while the entry tuple still holds its
                        # reference.
                        k = 0
                        ln = len(nxt_slot)
                        while k < ln:
                            handle = nxt_slot[k][2]
                            if not handle._cancelled:
                                break
                            handle._queued = False
                            if len(pool) < _POOL_CAP and getref(handle) == 3:
                                pool.append(handle)
                            k += 1
                        del nxt_slot[:k]
                        self._queued_count -= k
                        self._wheel_count -= k
                        self._cancelled_in_queue -= k
                        continue
                    while nxt_slot and nxt_slot[0][2]._cancelled:
                        handle = heappop(nxt_slot)[2]
                        self._queued_count -= 1
                        if not in_far:
                            self._wheel_count -= 1
                        self._cancelled_in_queue -= 1
                        handle._queued = False
                        if (
                            getref is not None
                            and len(pool) < _POOL_CAP
                            and getref(handle) == 2
                        ):
                            pool.append(handle)
                        if not batched:
                            break
                    continue
                if until is not None and nxt_time > until:
                    break
                if idle_grace is not None and nxt_time - now > idle_grace:
                    self._stopped_on_grace = True
                    break
                if ran == budget:
                    break
                self._now = nxt_time
                self._rebase()
        except _Stop:
            pass
        finally:
            self._running = False
            self._in_batch = False
            self._ahead_until = -_INF
            self._events_run += executed
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def _requeue_slot(
        self,
        slot: List[Tuple[float, int, EventHandle]],
        batch: List[Optional[Tuple[float, int, EventHandle]]],
        idx: int,
        entry: Tuple[float, int, EventHandle],
    ) -> None:
        """Return the unexecuted tail of a slot batch to its slot when the
        event budget runs out mid-batch (cold path)."""
        rest = [entry]
        for j in range(idx + 1, len(batch)):
            rest.append(batch[j])
        restored_dead = 0
        for item in rest:
            handle = item[2]
            handle._queued = True
            if handle._cancelled:
                restored_dead += 1
        self._queued_count += len(rest)
        self._wheel_count += len(rest)
        self._cancelled_in_queue += restored_dead
        # Only the batched drain calls this.  `rest` is sorted and every
        # entry is due, so prepending preserves slot order; appends made
        # by the already-run callbacks invalidated the memo themselves.
        slot[:0] = rest

    def _requeue_bucket(
        self,
        batch: List[Optional[EventHandle]],
        idx: int,
        handle: EventHandle,
    ) -> None:
        """Return the unexecuted tail of a bucket batch to the front of
        the now-bucket when the event budget runs out mid-batch."""
        rest = [handle]
        for j in range(idx + 1, len(batch)):
            rest.append(batch[j])
        restored_dead = 0
        for item in rest:
            item._queued = True
            if item._cancelled:
                restored_dead += 1
        self._queued_count += len(rest)
        self._cancelled_in_queue += restored_dead
        self._bucket.extendleft(reversed(rest))

    def run_until(
        self, until: float, max_events: Optional[int] = None
    ) -> float:
        """Batch-run every event with ``time <= until`` and leave the
        clock exactly at ``until``.  Equivalent to ``run(until=until)``;
        the explicit name documents the batching entry point used by the
        benches."""
        return self.run(until=until, max_events=max_events)

    def run_while_pending(
        self,
        idle_grace: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Drive the loop in one call while work remains pending.

        With ``idle_grace=None`` this drains the queue completely (the
        old ``run_until_idle`` contract).  With a grace, the run stops as
        soon as the next live event lies more than ``idle_grace`` seconds
        past the clock -- "the simulation went quiet" -- leaving far-out
        events (chaos schedules, stale coalesced timers) unexecuted.
        Raises :class:`SchedulingError` when the ``max_events`` budget
        (default :data:`DEFAULT_IDLE_MAX_EVENTS`) runs out with live
        events still due, which distinguishes a runaway schedule from a
        clean drain.
        """
        budget = DEFAULT_IDLE_MAX_EVENTS if max_events is None else max_events
        end = self.run(max_events=budget, idle_grace=idle_grace)
        if self.pending_events and not self._stopped_on_grace:
            raise SchedulingError(
                f"event loop did not go idle within {budget} events"
            )
        return end

    def run_until_idle(self, max_events: int = DEFAULT_IDLE_MAX_EVENTS) -> float:
        """Run until no events remain.  ``max_events`` guards runaway loops."""
        return self.run_while_pending(max_events=max_events)

    def __repr__(self) -> str:
        return (
            f"<EventLoop now={self._now:.6f} pending={self.pending_events} "
            f"run={self._events_run}>"
        )


class _Stop(Exception):
    """Internal: unwind the dispatch loop when max_events is reached."""


class GroupTimer:
    """One logical deadline inside a :class:`TimerGroup`.

    Mirrors the :class:`EventHandle` surface the protocol layers use
    (``time``, ``cancel()``, ``cancelled``) so call sites can hold either
    interchangeably.
    """

    __slots__ = ("time", "_seq", "_callback", "_args", "_cancelled", "_group")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        group: "TimerGroup",
    ) -> None:
        self.time = time
        self._seq = seq
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._group = group

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        self._callback = _noop
        self._args = ()
        group = self._group
        if group is not None:
            self._group = None
            group._note_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "pending"
        return f"<GroupTimer t={self.time:.6f} {state}>"


class TimerGroup:
    """Many logical deadlines coalesced onto one rearming loop timer.

    Protocol layers that keep one deadline per pending message
    (piggyback flushes, control-request retransmissions, RKOM call
    timeouts, supervisor retries) would otherwise schedule and cancel a
    loop timer per message.  A group keeps those deadlines in its own
    ``(time, seq)`` heap and arms a *single* loop timer at the earliest
    live deadline, rearming only when the front changes -- so loop-timer
    churn is O(groups), not O(messages), while every callback still runs
    at exactly its scheduled simulated time, FIFO at equal times.

    Unlike the loop's lazy-cancel queue, cancelled entries are dropped
    eagerly: dead heads are popped on cancellation and the whole heap is
    compacted as soon as dead entries outnumber live ones.  When the
    last live deadline is cancelled the loop timer is left armed and
    simply no-ops (rearming at whatever is live by then), so pure
    schedule/cancel churn never touches the loop; ``cancel_all`` -- the
    teardown path -- disarms it for real, leaving zero live timers.
    """

    __slots__ = ("_loop", "_heap", "_seq", "_timer", "_live", "_dead",
                 "fires")

    def __init__(self, loop: EventLoop) -> None:
        self._loop = loop
        self._heap: List[Tuple[float, int, GroupTimer]] = []
        self._seq = itertools.count()
        self._timer: Optional[EventHandle] = None
        self._live = 0
        self._dead = 0
        #: Loop-timer firings so far (telemetry: timer events per message).
        self.fires = 0

    @property
    def live(self) -> int:
        """Live (not-yet-fired, not-cancelled) deadlines in the group."""
        return self._live

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        # Without this, __len__ would make an *empty* group falsy --
        # and ``group or loop`` fallbacks would silently skip it.
        return True

    @property
    def armed(self) -> bool:
        """Whether the group currently holds a loop timer."""
        return self._timer is not None and not self._timer.cancelled

    def call_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> GroupTimer:
        """Run ``callback(*args)`` at simulated time ``when`` (clamped to
        now)."""
        now = self._loop._now
        if when < now:
            when = now
        entry = GroupTimer(when, next(self._seq), callback, args, self)
        heapq.heappush(self._heap, (when, entry._seq, entry))
        self._live += 1
        # Keep the loop timer armed at the heap front (the new entry is
        # not necessarily the front when scheduling re-enters mid-fire).
        front = self._heap[0][0]
        timer = self._timer
        if timer is None or timer.cancelled:
            self._timer = self._loop.call_at(front, self._fire)
        elif front < timer.time:
            timer.cancel()
            self._timer = self._loop.call_at(front, self._fire)
        return entry

    def call_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> GroupTimer:
        """Run ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self.call_at(self._loop._now + delay, callback, *args)

    def _note_cancel(self) -> None:
        self._live -= 1
        self._dead += 1
        heap = self._heap
        while heap and heap[0][2]._cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        if not self._live:
            # Lazily disarmed: the loop timer stays armed and fires as a
            # no-op (or rearms at whatever is live by then).  Schedule/
            # cancel churn -- the dominant pattern for retransmit and
            # flush deadlines -- then never touches the loop at all.
            self._dead = 0
            del heap[:]
            return
        if self._dead > self._live:
            live_entries = [e for e in heap if not e[2]._cancelled]
            heap[:] = live_entries
            heapq.heapify(heap)
            self._dead = 0

    def _fire(self) -> None:
        self._timer = None
        self.fires += 1
        heap = self._heap
        now = self._loop._now
        while heap and heap[0][0] <= now:
            entry = heapq.heappop(heap)[2]
            if entry._cancelled:
                self._dead -= 1
                continue
            self._live -= 1
            entry._group = None
            callback, args = entry._callback, entry._args
            entry._callback = _noop
            entry._args = ()
            callback(*args)
        if heap and (self._timer is None or self._timer.cancelled):
            self._timer = self._loop.call_at(heap[0][0], self._fire)

    def cancel_all(self) -> None:
        """Cancel every pending deadline and disarm the loop timer."""
        for _, _, entry in self._heap:
            if not entry._cancelled:
                entry._cancelled = True
                entry._callback = _noop
                entry._args = ()
                entry._group = None
        del self._heap[:]
        self._live = 0
        self._dead = 0
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def __repr__(self) -> str:
        return f"<TimerGroup live={self._live} armed={self.armed}>"


class Signal:
    """A broadcast event: listeners subscribe, ``fire`` notifies them all.

    Used for RMS failure notification (basic property 3 of section 2) and
    for decoupled delivery hooks.  Listeners added during a ``fire`` are
    not invoked until the next ``fire``.
    """

    def __init__(self, loop: EventLoop) -> None:
        self._loop = loop
        self._listeners: List[Callable[..., None]] = []
        self.fire_count = 0

    def listen(self, callback: Callable[..., None]) -> Callable[[], None]:
        """Subscribe; returns an unsubscribe function."""
        self._listeners.append(callback)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def fire(self, *args: Any) -> None:
        """Invoke every current listener synchronously with ``args``."""
        self.fire_count += 1
        for callback in list(self._listeners):
            callback(*args)

    def fire_soon(self, *args: Any) -> None:
        """Invoke listeners via the event loop (next same-time slot)."""
        self._loop.call_soon(self.fire, *args)

    def __len__(self) -> int:
        return len(self._listeners)
