"""CPU run-ahead is exact.

When a host CPU finishes one work item with the next already queued, it
completes the next one inline if the event loop lets the clock run
ahead to its finish time (``EventLoop.advance_to``), instead of
scheduling a completion event.  These tests check that doing so changes
nothing observable: completion order and times match a small reference
non-preemptive scheduler, ``events_run``, trace records and the final
clock match the same run with every completion scheduled, and a
piggybacked LAN burst reproduces digests recorded before run-ahead
existed.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import random

from hypothesis import given, settings, strategies as st

from repro import DashSystem, DelayBound, DelayBoundType, RmsParams
from repro.sched.cpu import CpuCostModel, HostCpu
from repro.sim.context import SimContext
from repro.sim.events import EventLoop

#: Times are whole ticks of 2**-10 s, so every sum is an exact float and
#: completions tie exactly with other timers.
TICK = 1.0 / 1024
SWITCH = 2 * TICK
POLICIES = ("edf", "fifo", "priority")


def _no_run_ahead(loop: EventLoop) -> None:
    """Make every CPU completion a scheduled event on ``loop``."""
    loop.advance_to = lambda when: False


# ----------------------------------------------------------------------
# advance_to conditions
# ----------------------------------------------------------------------


class TestAdvanceTo:
    def _probe(self, loop, when, record):
        """An event that asks to run ahead to ``when`` and records the
        answer and the clock."""

        def probe():
            record.append((loop.advance_to(when), loop.now))

        return probe

    def test_runs_ahead_when_nothing_is_due_first(self):
        loop = EventLoop()
        record = []
        loop.call_at(1.0, self._probe(loop, 1.5, record))
        loop.call_at(2.0, record.append, "later")
        loop.run()
        assert record == [(True, 1.5), "later"]
        assert loop.events_run == 3

    def test_tie_declines(self):
        loop = EventLoop()
        record = []
        loop.call_at(1.0, self._probe(loop, 1.5, record))
        loop.call_at(1.5, record.append, "tie")
        loop.run()
        assert record == [(False, 1.0), "tie"]

    def test_cancelled_entry_before_when_declines(self):
        loop = EventLoop()
        record = []
        loop.call_at(1.0, self._probe(loop, 1.5, record))
        loop.call_at(1.25, record.append, "dead").cancel()
        loop.run()
        assert record == [(False, 1.0)]

    def test_far_entry_declines(self):
        loop = EventLoop()
        record = []
        loop.call_at(1.0, self._probe(loop, 5.0, record))
        loop.call_at(4.0, record.append, "far")
        loop.run()
        assert record == [(False, 1.0), "far"]

    def test_now_bucket_declines(self):
        loop = EventLoop()
        record = []

        def first():
            loop.call_soon(record.append, "soon")
            self._probe(loop, 1.5, record)()

        loop.call_at(1.0, first)
        loop.run()
        assert record == [(False, 1.0), "soon"]

    def test_rest_of_batch_declines(self):
        for batch_dispatch in (True, False):
            loop = EventLoop(batch_dispatch=batch_dispatch)
            record = []
            loop.call_at(1.0, self._probe(loop, 1.5, record))
            loop.call_at(1.0, self._probe(loop, 1.5, record))
            loop.run()
            assert record == [(False, 1.0), (True, 1.5)]

    def test_until_and_idle_grace_bound_it(self):
        record = []
        for when, limits in (
            (1.5, {"until": 1.25}),
            (1.5, {"idle_grace": 0.25}),
            (1.25, {"idle_grace": 0.25}),
            (1.25, {"until": 1.25}),
        ):
            loop = EventLoop(start_time=1.0)
            loop.call_at(1.0, self._probe(loop, when, record))
            loop.run(**limits)
        assert record == [(False, 1.0), (False, 1.0), (True, 1.25), (True, 1.25)]

    def test_budget_or_no_run_declines(self):
        loop = EventLoop()
        record = []
        loop.call_at(1.0, self._probe(loop, 1.5, record))
        loop.run(max_events=10)
        assert loop.advance_to(2.0) is False
        assert record == [(False, 1.0)]
        assert loop.now == 1.0


# ----------------------------------------------------------------------
# random job mixes against a reference scheduler
# ----------------------------------------------------------------------

_jobs = st.lists(
    st.fixed_dictionaries({
        "cpu": st.integers(0, 2),
        "at": st.integers(0, 30),
        "cost": st.integers(0, 5),
        "deadline": st.integers(0, 60),
        "priority": st.integers(0, 3),
        "owner": st.sampled_from("ab"),
        "fast": st.booleans(),
        "child": st.none() | st.tuples(
            st.integers(0, 4), st.integers(0, 60), st.sampled_from("ab")
        ),
    }),
    min_size=1,
    max_size=25,
)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("until"), st.integers(0, 80)),
        st.tuples(st.just("grace"), st.integers(0, 6)),
        st.tuples(st.just("budget"), st.integers(1, 12)),
        st.tuples(st.just("drain"), st.just(0)),
    ),
    max_size=8,
)
_scenarios = st.fixed_dictionaries({
    "cpus": st.integers(1, 3),
    "policy": st.sampled_from(POLICIES),
    "switches": st.booleans(),
    "batch": st.booleans(),
    "jobs": _jobs,
    "timers": st.lists(st.integers(0, 80), max_size=12),
    "pauses": st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 40), st.integers(0, 10)),
        max_size=3,
    ),
    "steps": _steps,
})


def _simulate(spec, run_ahead):
    """Run ``spec`` on real HostCpus; returns the observable outcome."""
    context = SimContext(seed=1, trace=True, batch_dispatch=spec["batch"])
    loop = context.loop
    if not run_ahead:
        _no_run_ahead(loop)
    costs = CpuCostModel(per_context_switch=SWITCH)
    cpus = [
        HostCpu(context, name=f"cpu{index}", policy=spec["policy"],
                cost_model=costs, charge_context_switches=spec["switches"])
        for index in range(spec["cpus"])
    ]
    log = []

    def submit(cpu, ident, cost, deadline, priority, owner, fast, child):
        def done(*args):
            log.append(("done", ident, loop.now))
            if child is not None:
                child_cost, child_deadline, child_owner = child
                submit(cpu, f"{ident}.child", child_cost, child_deadline,
                       0, child_owner, True, None)

        name = f"{owner}/{ident}"
        if fast:
            cpu.submit_fast(name, cost * TICK, deadline * TICK, done, (ident,),
                            owner=owner)
        else:
            cpu.submit(name, cost * TICK, deadline * TICK, done,
                       priority=priority)

    for ident, job in enumerate(spec["jobs"]):
        cpu = cpus[job["cpu"] % len(cpus)]
        loop.call_at(
            job["at"] * TICK, submit, cpu, ident, job["cost"], job["deadline"],
            job["priority"], job["owner"], job["fast"], job["child"],
        )
    for index, at in enumerate(spec["timers"]):
        loop.call_at(at * TICK, lambda index=index: log.append(
            ("timer", index, loop.now)))
    for which, at, length in spec["pauses"]:
        cpu = cpus[which % len(cpus)]
        loop.call_at(at * TICK, cpu.pause)
        loop.call_at((at + length) * TICK, cpu.resume)

    for kind, value in spec["steps"]:
        if kind == "until":
            loop.run(until=value * TICK)
        elif kind == "grace":
            loop.run(idle_grace=value * TICK)
        elif kind == "budget":
            loop.run(max_events=value)
        else:
            loop.run_while_pending()
        log.append(("stop", kind, loop.now))
    loop.run()
    assert loop.pending_events == 0
    records = [
        (record.time, record.category, record.event, sorted(record.fields.items()))
        for record in context.tracer.records
    ]
    stats = [
        (cpu.items_run, cpu.busy_time, cpu.context_switches, cpu.deadline_misses)
        for cpu in cpus
    ]
    return log, loop.events_run, loop.now, records, stats


def _reference(spec):
    """The same scenario on a minimal non-preemptive scheduler with one
    scheduled completion event per item; returns (completion and timer
    log, events run)."""
    events = []
    event_seq = itertools.count()
    clock = [0.0]
    log = []

    def schedule(when, func, *args):
        heapq.heappush(events, (when, next(event_seq), func, args))

    key = {
        "edf": lambda job: job["deadline"],
        "fifo": lambda job: 0,
        "priority": lambda job: job["priority"],
    }[spec["policy"]]

    class Cpu:
        def __init__(self):
            self.ready = []
            self.seq = itertools.count()
            self.busy = False
            self.paused = False
            self.last_owner = None

        def submit(self, job):
            if self.busy or self.paused or self.ready:
                heapq.heappush(self.ready, (key(job), next(self.seq), job))
                self.dispatch()
            else:
                self.start(job)

        def dispatch(self):
            if not (self.busy or self.paused or not self.ready):
                self.start(heapq.heappop(self.ready)[2])

        def start(self, job):
            self.busy = True
            run_time = job["cost"] * TICK
            if spec["switches"] and job["owner"] != self.last_owner:
                run_time += SWITCH
            self.last_owner = job["owner"]
            schedule(clock[0] + run_time, self.finish, job)

        def finish(self, job):
            self.busy = False
            log.append(("done", job["id"], clock[0]))
            child = job["child"]
            if child is not None:
                self.submit({
                    "id": f"{job['id']}.child", "cost": child[0],
                    "deadline": child[1] * TICK, "priority": 0,
                    "owner": child[2], "child": None,
                })
            self.dispatch()

        def pause(self):
            self.paused = True

        def resume(self):
            if self.paused:
                self.paused = False
                self.dispatch()

    cpus = [Cpu() for _ in range(spec["cpus"])]
    for ident, job in enumerate(spec["jobs"]):
        item = {
            "id": ident, "cost": job["cost"], "deadline": job["deadline"] * TICK,
            "priority": 0 if job["fast"] else job["priority"],
            "owner": job["owner"], "child": job["child"],
        }
        schedule(job["at"] * TICK, cpus[job["cpu"] % len(cpus)].submit, item)
    for index, at in enumerate(spec["timers"]):
        schedule(at * TICK, lambda index=index: log.append(
            ("timer", index, clock[0])))
    for which, at, length in spec["pauses"]:
        cpu = cpus[which % len(cpus)]
        schedule(at * TICK, cpu.pause)
        schedule((at + length) * TICK, cpu.resume)
    ran = 0
    while events:
        when, _seq, func, args = heapq.heappop(events)
        clock[0] = when
        func(*args)
        ran += 1
    return log, ran


def _without_stops(log):
    return [entry for entry in log if entry[0] != "stop"]


@settings(max_examples=150, deadline=None)
@given(_scenarios)
def test_run_ahead_matches_reference_and_scheduled_run(spec):
    ahead = _simulate(spec, run_ahead=True)
    scheduled = _simulate(spec, run_ahead=False)
    # Completion order and times, foreign timers, the clock at every
    # run() stop, events_run, trace records and CPU statistics: all
    # identical to the run with every completion scheduled.
    assert ahead == scheduled
    reference_log, reference_events = _reference(spec)
    assert _without_stops(ahead[0]) == reference_log
    assert ahead[1] == reference_events


def test_run_ahead_fires_on_queued_work():
    """Back-to-back queued items complete inline: one event is counted
    per completion, but only the first is a scheduled loop event."""
    context = SimContext(seed=1)
    loop = context.loop
    cpu = HostCpu(context, charge_context_switches=False)
    done = []
    for index in range(5):
        cpu.submit(f"x/{index}", TICK, 1.0, lambda index=index: done.append(
            (index, loop.now)))
    # The first item started at submit; the other four never schedule.
    scheduled = []
    original = loop.call_at
    loop.call_at = lambda when, *rest: scheduled.append(when) or original(
        when, *rest)
    loop.run()
    assert done == [(index, (index + 1) * TICK) for index in range(5)]
    assert scheduled == []
    assert loop.events_run == 5


# ----------------------------------------------------------------------
# golden digests of a piggybacked LAN burst
# ----------------------------------------------------------------------

#: (deliveries, events_run, digest) of :func:`_lan_burst_digest`,
#: recorded with every CPU completion a scheduled event.  observe on and
#: off run the same program, so they share one digest.
LAN_BURST_GOLDEN = (2357, 5696, "738143a3abd86cf7")


def _lan_burst_digest(observe, batch_dispatch=True, run_ahead=True):
    """Four hosts on a trusted Ethernet, eight piggybacked ST RMSs, 40
    seeded bursts of 100 B messages; returns (deliveries, events_run,
    digest of every delivery, its time and the CPU statistics)."""
    seed = 5
    system = DashSystem(seed=seed, observe=observe, batch_dispatch=batch_dispatch)
    if not run_ahead:
        _no_run_ahead(system.context.loop)
    system.add_ethernet(trusted=True)
    for index in range(4):
        system.add_node(f"h{index}")
    params = RmsParams(
        capacity=32 * 1024, max_message_size=4000,
        delay_bound=DelayBound(0.1, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    pairs = [("h0", "h1"), ("h2", "h1"), ("h0", "h3"), ("h2", "h3")]
    sessions = [
        system.connect(src, dst, desired=params, acceptable=params,
                       port=f"lan{index}")
        for index, (src, dst) in enumerate(pairs * 2)
    ]
    system.run(until=system.now + 2.0)
    log = []
    for index, session in enumerate(sessions):
        session.port.set_handler(
            lambda message, index=index: log.append(
                (index, bytes(message.payload), system.now)))
    rng = random.Random(seed)
    origin = system.now
    for burst in range(40):
        start = origin + burst * 0.02
        for offset, index in sorted(
            (rng.uniform(0.0, 0.005), index) for index in range(len(sessions))
        ):
            system.run(until=start + offset)
            for seq in range(rng.randrange(4, 12)):
                sessions[index].send(bytes([index, seq]) * 50)
    system.run(until=system.now + 2.0)
    loop = system.context.loop
    digest = hashlib.sha256()
    for index, payload, when in log:
        digest.update(f"{index}:{payload.hex()}:{when!r};".encode())
    for name in sorted(system.nodes):
        cpu = system.nodes[name].host.cpu
        digest.update(
            f"{name}:{cpu.items_run}:{cpu.context_switches}:"
            f"{cpu.busy_time!r}:{cpu.deadline_misses};".encode())
    digest.update(f"{system.now!r}:{loop.events_run}".encode())
    return len(log), loop.events_run, digest.hexdigest()[:16]


class TestLanBurstGolden:
    def test_observe_off(self):
        assert _lan_burst_digest(observe=False) == LAN_BURST_GOLDEN

    def test_observe_on(self):
        assert _lan_burst_digest(observe=True) == LAN_BURST_GOLDEN

    def test_unbatched_loop(self):
        assert _lan_burst_digest(False, batch_dispatch=False) == LAN_BURST_GOLDEN

    def test_every_completion_scheduled(self):
        assert _lan_burst_digest(False, run_ahead=False) == LAN_BURST_GOLDEN
