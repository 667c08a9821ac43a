"""Host CPU model with deadline-based short-term scheduling (section 4.1).

When an upper-level RMS is created, its total delay is divided among
stages (send protocol processing, ST delay, network delay, receive
protocol processing).  Each piece of protocol work submitted to a
:class:`HostCpu` carries the deadline of its stage; the CPU executes one
work item at a time and picks the next by the configured policy (EDF by
default, FIFO/priority for the ablation benchmarks).

Protocol CPU costs are linear in message size, parameterized by a
:class:`CpuCostModel` so experiments can charge realistic relative costs
for checksumming, encryption, and per-message protocol overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.context import SimContext
from repro.sched.policies import _HeapQueue, make_queue

__all__ = ["CpuCostModel", "WorkItem", "HostCpu"]


@dataclass(frozen=True)
class CpuCostModel:
    """Per-operation CPU costs, in seconds.

    The defaults model a late-1980s workstation-class CPU (a few MIPS):
    tens of microseconds of fixed cost per protocol operation plus
    per-byte costs for touching data.  Relative magnitudes are what the
    experiments depend on; absolute values only set the time scale.
    """

    per_message: float = 50e-6  # protocol bookkeeping per message
    per_context_switch: float = 100e-6  # process dispatch (section 4.3)
    checksum_per_byte: float = 30e-9  # software checksumming
    encrypt_per_byte: float = 120e-9  # software encryption
    mac_per_byte: float = 60e-9  # software message authentication
    copy_per_byte: float = 10e-9  # buffer copies / fragmentation

    def protocol_cost(
        self,
        size: int,
        checksum: bool = False,
        encrypt: bool = False,
        mac: bool = False,
        copies: int = 1,
    ) -> float:
        """CPU seconds to run one protocol stage over ``size`` bytes."""
        cost = self.per_message + copies * self.copy_per_byte * size
        if checksum:
            cost += self.checksum_per_byte * size
        if encrypt:
            cost += self.encrypt_per_byte * size
        if mac:
            cost += self.mac_per_byte * size
        return cost


class WorkItem:
    """One unit of protocol processing queued on a CPU."""

    __slots__ = ("name", "cpu_time", "deadline", "callback", "args",
                 "owner", "priority", "submitted_at", "started_at",
                 "finished_at", "trace_id")

    def __init__(
        self,
        name: str,
        cpu_time: float,
        deadline: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        owner: Optional[str] = None,
        priority: int = 0,
        submitted_at: float = 0.0,
        trace_id: Optional[int] = None,
    ) -> None:
        self.name = name
        self.cpu_time = cpu_time
        self.deadline = deadline
        self.callback = callback
        #: Positional arguments for ``callback``: callers can pass the
        #: stage state here instead of closing over it in a lambda.
        self.args = args
        #: Context-switch accounting owner.  ``None`` means "derive from
        #: the name prefix" (everything before the first ``/``).
        self.owner = owner
        self.priority = priority
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Observability span, if the item carries one message's stage.
        self.trace_id = trace_id

    @property
    def missed_deadline(self) -> Optional[bool]:
        if self.finished_at is None:
            return None
        return self.finished_at > self.deadline + 1e-12

    def __repr__(self) -> str:
        return (
            f"<WorkItem {self.name} cpu={self.cpu_time!r} "
            f"deadline={self.deadline!r}>"
        )


class HostCpu:
    """A single CPU executing protocol work items, one at a time.

    Non-preemptive: once an item starts it runs to completion.  The next
    item is chosen by the configured ready-queue policy.  A context
    switch cost is charged whenever the CPU moves between items of
    different ``owner`` names, modeling the protocol-process context
    switching that section 4.3 trades off against fragmentation.

    Each item completes at one simulated instant.  When the item after
    it is already queued, the CPU runs ahead (:meth:`EventLoop.advance_to
    <repro.sim.events.EventLoop.advance_to>`): if nothing else is due
    before that item's completion, it completes inline, without an
    event-loop round trip; otherwise it gets its completion event.
    """

    def __init__(
        self,
        context: SimContext,
        name: str = "cpu",
        policy: str = "edf",
        cost_model: Optional[CpuCostModel] = None,
        charge_context_switches: bool = True,
    ) -> None:
        self.context = context
        self.name = name
        self.costs = cost_model or CpuCostModel()
        # The policy's ready heap of (key, seq, item), pushed and popped
        # directly on the submit and finish paths.
        queue: _HeapQueue[WorkItem] = make_queue(policy)
        self._heap = queue._heap
        self._key = queue._key
        self._seq = queue._seq
        self.policy = policy
        self._busy = False
        self._paused = False
        self._last_owner: Optional[str] = None
        self._charge_switches = charge_context_switches
        # Statistics.
        self.items_run = 0
        self.busy_time = 0.0
        self.context_switches = 0
        self.deadline_misses = 0
        self.completed: List[WorkItem] = []
        self.keep_history = False

    def submit(
        self,
        name: str,
        cpu_time: float,
        deadline: float,
        callback: Callable[[], None],
        priority: int = 0,
        trace_id: Optional[int] = None,
    ) -> WorkItem:
        """Queue one work item; ``callback`` runs when it completes."""
        return self._submit(
            name, cpu_time, deadline, callback, (), None, priority, trace_id
        )

    def submit_protocol_stage(
        self,
        name: str,
        size: int,
        deadline: float,
        callback: Callable[[], None],
        checksum: bool = False,
        encrypt: bool = False,
        mac: bool = False,
        copies: int = 1,
        priority: int = 0,
        trace_id: Optional[int] = None,
    ) -> WorkItem:
        """Queue a protocol stage costed by the CPU's cost model."""
        cpu_time = self.costs.protocol_cost(
            size, checksum=checksum, encrypt=encrypt, mac=mac, copies=copies
        )
        return self.submit(
            name, cpu_time, deadline, callback, priority=priority,
            trace_id=trace_id,
        )

    def submit_fast(
        self,
        name: str,
        cpu_time: float,
        deadline: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        owner: Optional[str] = None,
        trace_id: Optional[int] = None,
    ) -> WorkItem:
        """Submit with a precomputed cost and a positional-args callback.

        Scheduling is that of :meth:`submit` at priority 0: the stage
        state travels in ``args`` (no closure per message), and an
        explicit ``owner`` spares the name split when the item starts.
        """
        return self._submit(
            name, cpu_time, deadline, callback, args, owner, 0, trace_id
        )

    def _submit(
        self,
        name: str,
        cpu_time: float,
        deadline: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        owner: Optional[str],
        priority: int,
        trace_id: Optional[int],
    ) -> WorkItem:
        context = self.context
        item = WorkItem(
            name, cpu_time, deadline, callback, args, owner, priority,
            context.loop._now, trace_id,
        )
        tracer = context.tracer
        if tracer.enabled:
            tracer.record(
                "cpu", "submit", cpu=self.name, item=name, deadline=deadline
            )
        obs = context.obs
        if obs.enabled:
            obs.spans.event(trace_id, "cpu", "enqueue", cpu=self.name, item=name)
        if self._busy or self._paused or self._heap:
            heappush(
                self._heap,
                (self._key(deadline, priority), next(self._seq), item),
            )
            if not self._busy:
                self._dispatch()
        else:
            # An idle CPU starts its only item directly: any policy pops
            # a one-item heap the same way.
            self._start(item)
        return item

    @property
    def queue_length(self) -> int:
        return len(self._heap)

    @property
    def utilization_window(self) -> float:
        """Busy seconds accumulated so far."""
        return self.busy_time

    def pause(self) -> None:
        """Stop dispatching queued work (a running item still completes).

        Models a host outage (chaos schedules): submitted protocol
        stages pile up in the ready queue until :meth:`resume`.
        """
        self._paused = True

    def resume(self) -> None:
        if not self._paused:
            return
        self._paused = False
        self._dispatch()

    def _dispatch(self) -> None:
        if self._busy or self._paused or not self._heap:
            return
        self._start(heappop(self._heap)[2])

    def _start(self, item: WorkItem) -> None:
        """Start ``item`` and schedule its completion event."""
        run_time = self._begin(item)
        loop = self.context.loop
        loop.call_at(loop._now + run_time, self._finish, item, run_time)

    def _begin(self, item: WorkItem) -> float:
        """Mark ``item`` running; returns its run time, including any
        context switch charged for it."""
        self._busy = True
        item.started_at = self.context.loop._now
        owner = item.owner
        if owner is None:
            owner = item.name.split("/", 1)[0]
        run_time = item.cpu_time
        if self._charge_switches and owner != self._last_owner:
            run_time += self.costs.per_context_switch
            self.context_switches += 1
        self._last_owner = owner
        obs = self.context.obs
        if obs.enabled:
            obs.spans.event(
                item.trace_id, "cpu", "dequeue", cpu=self.name, item=item.name
            )
        return run_time

    def _finish(self, item: WorkItem, run_time: float) -> None:
        """Complete ``item``, then start the next queued item; while the
        loop lets the clock run ahead to each next completion, those
        complete here too (see the class docstring)."""
        context = self.context
        loop = context.loop
        heap = self._heap
        while True:
            now = loop._now
            item.finished_at = now
            self._busy = False
            self.items_run += 1
            self.busy_time += run_time
            missed = now > item.deadline + 1e-12
            if missed:
                self.deadline_misses += 1
            if self.keep_history:
                self.completed.append(item)
            tracer = context.tracer
            if tracer.enabled:
                tracer.record(
                    "cpu",
                    "finish",
                    cpu=self.name,
                    item=item.name,
                    missed=missed,
                )
            obs = context.obs
            if obs.enabled:
                metrics = obs.metrics
                metrics.counter("cpu_items_run", cpu=self.name).inc()
                if missed:
                    metrics.counter("cpu_deadline_misses", cpu=self.name).inc()
                metrics.histogram(
                    "cpu_queue_wait_seconds", cpu=self.name
                ).observe(
                    (item.started_at or item.submitted_at) - item.submitted_at
                )
                obs.spans.event(
                    item.trace_id, "cpu", "done",
                    cpu=self.name, item=item.name, missed=missed,
                )
            item.callback(*item.args)
            if self._busy or self._paused or not heap:
                return
            item = heappop(heap)[2]
            run_time = self._begin(item)
            when = loop._now + run_time
            if not loop.advance_to(when):
                loop.call_at(when, self._finish, item, run_time)
                return

    def __repr__(self) -> str:
        return (
            f"<HostCpu {self.name} policy={self.policy} queued="
            f"{self.queue_length} run={self.items_run}>"
        )
