"""The four benchmark workloads.

Every workload builds one DASH system through the public entry points
(``DashSystem``, ``connect``, ``run``, ``Network.create_rms``,
``Link.set_down``/``set_up``, ``can_reach``), drives it one *epoch* at a
time on a fixed simulated schedule, and checks its own output.  All
inputs -- burst widths, payload bytes, flap schedules, host slots --
come from the seed.

Simulation-exact values (delays, round trips, counts) are taken over a
*window*: the first ``window_epochs`` measured epochs plus one settling
epoch, so every message sent in the window is delivered before the
window closes.  A run measures more epochs than that for its rates;
the window is what makes two runs of one seed comparable.
"""

from __future__ import annotations

import random
import struct
from typing import Callable, Dict, List, Tuple

from repro.core.message import Label
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.dash.system import DashSystem
from repro.netsim.topology import MeshSpec
from repro.resilience.policy import ResiliencePolicy
from repro.transport.stream import StreamConfig

INF = float("inf")

#: Distinct payloads per channel; messages cycle through the pool, so a
#: reordering or a corrupted payload shows as a mismatch at the receiver.
POOL = 61


def _payload_pool(rng: random.Random, size: int, count: int = POOL) -> List[bytes]:
    return [rng.randbytes(size) for _ in range(count)]


def _schedule(rng: random.Random, low: int, high: int, length: int) -> List[int]:
    """A cyclic schedule of ``length`` burst widths in ``low..high``:
    every width equally often (to within one), in a seeded order.  With
    ``length`` set to the window's bursts, every window holds the same
    mix whatever the seed; seeds differ in order, not in load."""
    widths = [low + index % (high - low + 1) for index in range(length)]
    rng.shuffle(widths)
    return widths


class Workload:
    """One workload: inputs from the seed, a system, epochs, checks."""

    name = ""
    #: Measured epochs whose sends the simulation-exact values cover.
    window_epochs = 0
    #: Epochs after which the simulated schedule repeats (0: the
    #: window).  A run measures whole cycles, so every run does the same
    #: mix of work whatever the seed.
    cycle = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.system: DashSystem = None  # type: ignore[assignment]
        #: Client messages and payload bytes delivered, calls completed.
        self.msgs = 0
        self.bytes = 0
        self.calls = 0
        #: Operations attempted and failed (refused or raising sends,
        #: failed calls; undelivered messages are added by ``drain``).
        self.attempted = 0
        self.failed = 0
        #: Per channel (RMS, stream, pair): messages sent and delivered.
        self.sent: List[int] = []
        self.received: List[int] = []
        #: Output-check failures: (check name, detail).
        self.errors: List[Tuple[str, str]] = []
        #: Samples of messages (calls) sent in [lo, hi) simulated time.
        self.lo = INF
        self.hi = -INF
        self.delays: List[float] = []
        self.bound_misses = 0
        self.rtts: List[float] = []
        #: Largest event-queue depth seen before a ``run`` call.
        self.queue_depth_max = 0

    # -- to implement ------------------------------------------------------

    def build(self) -> None:
        """Build the system, establish every session, warm up."""
        raise NotImplementedError

    def epoch(self) -> None:
        """One epoch of the workload's simulated schedule."""
        raise NotImplementedError

    def drain(self) -> None:
        """Stop offering load, deliver everything in flight, count what
        never arrived as failed, and run the end-of-run checks."""
        raise NotImplementedError

    # -- shared ------------------------------------------------------------

    @property
    def cycle_epochs(self) -> int:
        return self.cycle or self.window_epochs

    @property
    def now(self) -> float:
        return self.system.now

    def run_until(self, when: float) -> None:
        depth = self.system.context.loop.queue_depth
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth
        self.system.run(until=when)

    def error(self, check: str, detail: str) -> None:
        if len(self.errors) < 20:
            self.errors.append((check, detail))

    def sample_delay(self, send_time: float, delay: float, bound: float) -> None:
        if self.lo <= send_time < self.hi:
            self.delays.append(delay)
            if delay > bound:
                self.bound_misses += 1

    def extra_counters(self) -> Dict[str, int]:
        """Workload-specific cumulative counters (transport sessions)."""
        return {}

    def receiver(self, index: int, pool: List[bytes], bound: float) -> Callable:
        """Port handler of channel ``index``: the n-th message must be
        ``pool[n % len(pool)]``; counts it and samples its delay against
        the delay bound ``bound``."""
        size = len(pool)
        received = self.received
        sample = self.sample_delay

        def on_message(message) -> None:
            count = received[index]
            payload = message.payload
            if payload != pool[count % size]:
                self.error("in_order_byte_exact",
                           f"channel {index} message {count} differs")
            received[index] = count + 1
            self.msgs += 1
            self.bytes += len(payload)
            send_time = message.send_time
            sample(send_time, message.deliver_time - send_time, bound)

        return on_message

    def check_delivered(self) -> None:
        """After the drain every channel delivered what it was sent."""
        for index, (sent, received) in enumerate(zip(self.sent, self.received)):
            if received != sent:
                self.failed += max(0, sent - received)
                self.error("delivered_equals_sent",
                           f"channel {index}: sent {sent}, delivered {received}")


# ----------------------------------------------------------------------
# LAN workloads: open-loop bursts on one Ethernet segment
# ----------------------------------------------------------------------


class _LanWorkload(Workload):
    """``PAIRS`` host pairs with ``RMS_PER_PAIR`` ST RMSs each; every
    ``GAP`` simulated seconds each RMS sends a burst whose width is drawn
    from ``WIDTHS`` and whose offset into the period from
    ``[0, GAP / 4)`` by the seed."""

    PAIRS = 0
    RMS_PER_PAIR = 1
    PAYLOAD = 0
    POOL = POOL
    GAP = 0.0
    BURSTS_PER_EPOCH = 0
    WIDTHS = (0, 0)
    TRUSTED = True
    SECURED = False

    def build(self) -> None:
        rng = self.rng
        system = self.system = DashSystem(seed=self.seed)
        system.add_ethernet(trusted=self.TRUSTED)
        for index in range(2 * self.PAIRS):
            system.add_node(f"h{index}")
        params = RmsParams(
            privacy=self.SECURED,
            authentication=self.SECURED,
            capacity=64 * 1024 if self.SECURED else 32 * 1024,
            max_message_size=max(4000, self.PAYLOAD),
            delay_bound=DelayBound(0.1, 1e-5),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
        )
        sessions = []
        for pair in range(self.PAIRS):
            for slot in range(self.RMS_PER_PAIR):
                sessions.append(system.connect(
                    f"h{2 * pair}", f"h{2 * pair + 1}",
                    desired=params, acceptable=params, port=f"lan{slot}",
                ))
        system.run(until=system.now + 2.0)
        self.sessions = sessions
        self.pools = [
            _payload_pool(rng, self.PAYLOAD, self.POOL) for _ in sessions
        ]
        window = self.window_epochs * self.BURSTS_PER_EPOCH
        self.widths = [_schedule(rng, *self.WIDTHS, window) for _ in sessions]
        # Each burst leaves at a seeded offset into its period, so the
        # channels' bursts interleave differently from seed to seed.
        offsets = [
            [rng.uniform(0.0, self.GAP / 4) for _ in range(window)]
            for _ in sessions
        ]
        self.slots = [
            sorted((offsets[index][slot], index) for index in range(len(sessions)))
            for slot in range(window)
        ]
        self.sent = [0] * len(sessions)
        self.received = [0] * len(sessions)
        for index, session in enumerate(sessions):
            rms = session.established.result()
            if self.SECURED and not (rms.plan.encrypt and rms.plan.mac):
                self.error("software_security", f"rms {index} is not sealed and MAC'd")
            bound = rms.params.delay_bound.bound_for(self.PAYLOAD) + 1e-12
            session.port.set_handler(self.receiver(index, self.pools[index], bound))
        self.bursts = 0
        self.origin = system.now
        for _ in range(2):
            self.epoch()

    def epoch(self) -> None:
        sessions = self.sessions
        pools = self.pools
        widths = self.widths
        sent = self.sent
        size = self.POOL
        slots = self.slots
        for _ in range(self.BURSTS_PER_EPOCH):
            burst = self.bursts
            start = self.origin + burst * self.GAP
            for offset, index in slots[burst % len(slots)]:
                self.run_until(start + offset)
                session = sessions[index]
                pool = pools[index]
                count = sent[index]
                width = widths[index][burst % len(widths[index])]
                for seq in range(count, count + width):
                    try:
                        session.send(pool[seq % size])
                    except Exception as exc:  # a refused send is a failed op
                        self.failed += 1
                        self.error("send", repr(exc))
                sent[index] = count + width
                self.attempted += width
            self.bursts = burst + 1
            self.run_until(self.origin + self.bursts * self.GAP)

    def drain(self) -> None:
        self.run_until(self.now + 2.0)
        self.check_delivered()


class LanBurst(_LanWorkload):
    """Piggybacked 100 B bursts on a trusted Ethernet (paper section
    4.2): per-message cost dominates and the ST bundles ~12:1."""

    name = "lan_burst"
    window_epochs = 16
    PAIRS = 4
    RMS_PER_PAIR = 2
    PAYLOAD = 100
    GAP = 0.02
    BURSTS_PER_EPOCH = 25
    WIDTHS = (6, 14)


class LanSecureBulk(_LanWorkload):
    """Secured 8000 B bulk on an untrusted Ethernet: privacy and
    authentication, so every ~6-fragment message is sealed and MAC'd in
    software; per-byte cost dominates."""

    name = "lan_secure_bulk"
    window_epochs = 26
    PAIRS = 2
    PAYLOAD = 8000
    POOL = 7
    GAP = 0.1
    BURSTS_PER_EPOCH = 5
    WIDTHS = (3, 5)
    TRUSTED = False
    SECURED = True


# ----------------------------------------------------------------------
# mesh_rpc: closed-loop RKOM plus supervised streams over a fabric
# ----------------------------------------------------------------------

#: Stream record header: stream index, record number, simulated send time.
_RECORD = struct.Struct(">HId")


class MeshRpc(Workload):
    """A 4-spine/6-leaf ``two_tier`` fabric (3 hosts per leaf, trusted,
    ECMP on): 6 closed-loop RKOM echo clients with 4 calls outstanding
    each (128 B) and 6 supervised reliable streams of 1 KB records sent
    open loop (1..3 records per stream every 10 ms), every one of them
    across the core.

    No link flaps here: a trunk flap under this traffic crashes the
    program today (see NOTES.md, "Known defects")."""

    name = "mesh_rpc"
    window_epochs = 10
    SPINES = 4
    LEAVES = 6
    HOSTS_PER_LEAF = 3
    CALL_PAYLOAD = 128
    OUTSTANDING = 4
    RECORD = 1024
    TICK = 0.01
    TICKS_PER_EPOCH = 25
    RECORDS_PER_TICK = (1, 3)
    SPEC = MeshSpec(
        trunk_bandwidth=1.25e6,
        trunk_delay=1e-3,
        access_bandwidth=2.5e6,
        access_delay=1e-4,
    )

    def build(self) -> None:
        rng = self.rng
        system = self.system = DashSystem(seed=self.seed)
        system.add_mesh(
            "two_tier", ecmp=True, spines=self.SPINES, leaves=self.LEAVES,
            hosts_per_leaf=self.HOSTS_PER_LEAF, spec=self.SPEC,
            network_kwargs={"trusted": True},
        )
        per_leaf = self.HOSTS_PER_LEAF
        half = self.LEAVES // 2
        # RKOM: slot 0 of every leaf calls slot 1 of the opposite leaf.
        self.clients = []
        for leaf in range(self.LEAVES):
            server = f"h{((leaf + half) % self.LEAVES) * per_leaf + 1}"
            system.nodes[server].rkom.register_handler(
                "echo", lambda payload, sender: payload
            )
            self.clients.append(
                system.connect(f"h{leaf * per_leaf}", server, kind="rkom")
            )
        self.call_pools = [
            _payload_pool(rng, self.CALL_PAYLOAD) for _ in self.clients
        ]
        self.calls_issued = [0] * len(self.clients)
        self.in_flight = 0
        self.offering = True
        # Streams: slot 2 of every leaf to slot 2 of the leaf two along.
        config = StreamConfig(data_delay_bound=0.05, data_max_message=2048)
        self.streams = [
            system.connect(
                f"h{leaf * per_leaf + 2}",
                f"h{((leaf + 2) % self.LEAVES) * per_leaf + 2}",
                kind="stream", config=config, resilience=ResiliencePolicy(),
            )
            for leaf in range(self.LEAVES)
        ]
        system.run(until=system.now + 2.0)
        filler = self.RECORD - _RECORD.size
        self.record_pools = [_payload_pool(rng, filler) for _ in self.streams]
        window = self.window_epochs * self.TICKS_PER_EPOCH
        self.record_counts = [
            _schedule(rng, *self.RECORDS_PER_TICK, window) for _ in self.streams
        ]
        self.sent = [0] * len(self.streams)
        self.received = [0] * len(self.streams)
        self.stream_bounds = []
        for index, session in enumerate(self.streams):
            stream = session.established.result()
            bound = stream.data_rms.params.delay_bound
            self.stream_bounds.append(bound.bound_for(self.RECORD + 5) + 1e-12)
            self._receive(index, None)
        for index in range(len(self.clients)):
            for _ in range(self.OUTSTANDING):
                self._call(index)
        self.ticks = 0
        self.origin = system.now
        for _ in range(2):
            self.epoch()

    # -- RKOM clients (closed loop) ----------------------------------------

    def _call(self, index: int) -> None:
        number = self.calls_issued[index]
        self.calls_issued[index] = number + 1
        payload = self.call_pools[index][number % POOL]
        self.attempted += 1
        self.in_flight += 1
        sent_at = self.system.now
        try:
            handle = self.clients[index].call("echo", payload)
        except Exception as exc:
            self.in_flight -= 1
            self.failed += 1
            self.error("call", repr(exc))
            return
        handle.add_done_callback(
            lambda done: self._reply(index, payload, sent_at, done)
        )

    def _reply(self, index: int, payload: bytes, sent_at: float, handle) -> None:
        self.in_flight -= 1
        if handle.failed:
            self.failed += 1
            self.error("call_failed", f"client {index}")
        else:
            if handle.result() != payload:
                self.error("reply_equals_request", f"client {index}")
            self.calls += 1
            # One request and one reply delivered to clients per call.
            self.msgs += 2
            self.bytes += 2 * len(payload)
            if self.lo <= sent_at < self.hi:
                self.rtts.append(handle.elapsed)
        if self.offering:
            self._call(index)

    # -- streams (open loop) -----------------------------------------------

    def _receive(self, index: int, future) -> None:
        if future is not None:
            record = future.result()
            count = self.received[index]
            stream, number, send_time = _RECORD.unpack_from(record, 0)
            if (
                stream != index
                or number != count
                or record[_RECORD.size:] != self.record_pools[index][count % POOL]
            ):
                self.error("records_in_order_none_missing",
                           f"stream {index} record {count}")
            self.received[index] = count + 1
            self.msgs += 1
            self.bytes += len(record)
            self.sample_delay(send_time, self.system.now - send_time,
                              self.stream_bounds[index])
        self.streams[index].receive().add_done_callback(
            lambda done: self._receive(index, done)
        )

    def epoch(self) -> None:
        streams = self.streams
        counts = self.record_counts
        pools = self.record_pools
        sent = self.sent
        for _ in range(self.TICKS_PER_EPOCH):
            tick = self.ticks
            now = self.system.now
            for index, session in enumerate(streams):
                count = sent[index]
                width = counts[index][tick % len(counts[index])]
                pool = pools[index]
                for number in range(count, count + width):
                    try:
                        session.send(_RECORD.pack(index, number, now) + pool[number % POOL])
                    except Exception as exc:
                        self.failed += 1
                        self.error("send", repr(exc))
                sent[index] = count + width
                self.attempted += width
            self.ticks = tick + 1
            self.run_until(self.origin + self.ticks * self.TICK)

    def drain(self) -> None:
        self.offering = False
        self.run_until(self.now + 3.0)
        if self.in_flight:
            self.failed += self.in_flight
            self.error("calls_completed", f"{self.in_flight} calls still in flight")
        self.check_delivered()

    def extra_counters(self) -> Dict[str, int]:
        counters = {"stream_retransmits": 0, "stream_acks": 0}
        for session in self.streams:
            stats = session.stream.stats
            counters["stream_retransmits"] += stats.retransmissions
            counters["stream_acks"] += stats.acks_sent
        counters["calls"] = self.calls
        counters["stream_records"] = sum(self.received)
        return counters


# ----------------------------------------------------------------------
# mesh_churn: network-layer RMSs on a grid under trunk flaps
# ----------------------------------------------------------------------


class MeshChurn(Workload):
    """The e22 shape: a 6x6 router grid with 6 hosts per router (216
    hosts) and 100 network-layer RMSs.  Every epoch flaps two trunks
    (both directions, one after the other) from the seeded schedule; each
    transition is followed by a reachability sweep (8 probes per host),
    re-creation of the failed RMSs and a traffic round of 2 x 64 B per
    RMS."""

    name = "mesh_churn"
    window_epochs = 6
    FLAPS_PER_EPOCH = 2
    #: One pass over the trunks (60 flaps); epochs differ in work, so a
    #: run measures whole passes.
    cycle = 30
    ROWS = 6
    COLS = 6
    HOSTS_PER_ROUTER = 6
    PAIRS = 100
    PROBES_PER_HOST = 8
    MSGS_PER_ROUND = 2
    ROUND = 0.4
    #: One message size: a network-layer RMS reorders messages of
    #: different sizes today (see NOTES.md, "Known defects").
    PAYLOAD = 64
    SPEC = MeshSpec(
        trunk_bandwidth=2.5e6,
        trunk_delay=5e-4,
        access_bandwidth=5e6,
        access_delay=1e-4,
    )

    def build(self) -> None:
        rng = self.rng
        system = self.system = DashSystem(seed=self.seed)
        self.network, mesh = system.add_mesh(
            "grid", rows=self.ROWS, cols=self.COLS,
            hosts_per_router=self.HOSTS_PER_ROUTER, spec=self.SPEC,
            network_kwargs={"trusted": True},
        )
        routers = len(mesh.routers)
        per_router = self.HOSTS_PER_ROUTER
        # Router pairs are fixed, so every seed has the same path-length
        # mix; the seed picks the host slot at each end.
        self.pairs: List[Tuple[str, str]] = []
        for index in range(self.PAIRS):
            src_router = (index * 7) % routers
            dst_router = (src_router + 1 + (index * 11) % (routers - 1)) % routers
            self.pairs.append((
                mesh.hosts[src_router * per_router + rng.randrange(per_router)],
                mesh.hosts[dst_router * per_router + rng.randrange(per_router)],
            ))
        hosts = mesh.hosts
        self.probes = [
            (src, dst)
            for src in hosts
            for dst in rng.sample(hosts, self.PROBES_PER_HOST)
            if dst != src
        ]
        self.trunks = []
        for row in range(self.ROWS):
            for col in range(self.COLS):
                if col + 1 < self.COLS:
                    self.trunks.append((f"g{row}x{col}", f"g{row}x{col + 1}"))
                if row + 1 < self.ROWS:
                    self.trunks.append((f"g{row}x{col}", f"g{row + 1}x{col}"))
        # Every trunk flaps once per pass, in a seeded order repeated
        # pass after pass, so each seed and each pass flaps the same mix.
        self.flaps = list(range(len(self.trunks)))
        rng.shuffle(self.flaps)
        if self.cycle * self.FLAPS_PER_EPOCH != len(self.flaps):
            raise ValueError("a cycle must be one pass over the trunks")
        self.pool = _payload_pool(rng, self.PAYLOAD)
        self.params = RmsParams(
            capacity=32 * 1024,
            max_message_size=512,
            delay_bound=DelayBound(0.5, 1e-4),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
        )
        self.bound = self.params.delay_bound.bound_for(self.PAYLOAD) + 1e-12
        self.rms: Dict[int, object] = {}
        self.sent = [0] * self.PAIRS
        self.received = [0] * self.PAIRS
        self.reachable = 0
        self.flap_count = 0
        self.establish()
        for _ in range(2):
            self.epoch()

    def establish(self) -> None:
        """(Re-)create every pair's RMS that is not open."""
        pending = []
        for index, (src, dst) in enumerate(self.pairs):
            rms = self.rms.get(index)
            if rms is not None and rms.is_open:
                continue
            self.attempted += 1
            try:
                future = self.network.create_rms(
                    Label(src), Label(dst), self.params, self.params,
                )
            except Exception as exc:
                self.failed += 1
                self.error("create_rms", repr(exc))
                continue
            pending.append((index, future))
        if not pending:
            return
        self.run_until(self.now + self.ROUND)
        for index, future in pending:
            if not future.done or future.failed:
                self.failed += 1
                self.error("create_rms", f"pair {index} not established")
                continue
            rms = future.result()
            rms.port.set_handler(self.receiver(index, self.pool, self.bound))
            self.rms[index] = rms

    def sweep(self) -> None:
        can_reach = self.network.can_reach
        self.reachable = sum(1 for src, dst in self.probes if can_reach(src, dst))

    def traffic_round(self) -> None:
        pool = self.pool
        sent = self.sent
        for index, rms in self.rms.items():
            if not rms.is_open:
                continue
            count = sent[index]
            for seq in range(count, count + self.MSGS_PER_ROUND):
                try:
                    rms.send(pool[seq % POOL])
                except Exception as exc:
                    self.failed += 1
                    self.error("send", repr(exc))
            sent[index] = count + self.MSGS_PER_ROUND
            self.attempted += self.MSGS_PER_ROUND
        self.run_until(self.now + self.ROUND)

    def epoch(self) -> None:
        link = self.network.link
        for _ in range(self.FLAPS_PER_EPOCH):
            u, v = self.trunks[self.flaps[self.flap_count % len(self.flaps)]]
            self.flap_count += 1
            link(u, v).set_down()
            link(v, u).set_down()
            self.sweep()
            self.establish()
            self.traffic_round()
            link(u, v).set_up()
            link(v, u).set_up()
            self.sweep()
            self.establish()
            self.traffic_round()

    def drain(self) -> None:
        # Recovery after the last heal: every pair delivers again.
        self.run_until(self.now + 2.0)
        marks = list(self.received)
        self.establish()
        self.traffic_round()
        recovered = sum(
            1 for index in range(self.PAIRS) if self.received[index] > marks[index]
        )
        self.recovery_ratio = recovered / self.PAIRS
        if recovered != self.PAIRS:
            self.error("recovery_ratio", f"{self.recovery_ratio:.3f} after the last heal")
        self.run_until(self.now + 2.0)
        self.check_delivered()


WORKLOADS = {
    cls.name: cls for cls in (LanBurst, LanSecureBulk, MeshRpc, MeshChurn)
}
