"""The DASH benchmark: one workload per run, checked, with its metrics.

    python3 perfbench/run.py --workload lan_burst --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (the ``src/`` tree is imported from
there; nothing is installed).  A run:

1. records ``calib.events_per_s`` (the frozen heapq loop of calib.py);
2. builds the workload ``SETUPS`` times and reports the median build time
   as ``setup_s`` (building includes establishing every session and two
   warm-up epochs, so lazy RKOM channels, route plans, pools and caches
   are filled before timing);
3. measures epochs of the last build for about ``--seconds``
   (``--seconds/2`` with ``--trace 1``) in whole cycles of the
   workload's schedule, never fewer than its simulation-exact window;
   a rate is the median of the cycles' rates;
4. drains the system and runs the workload's output checks;

Set-ups and the measured phase run under refclock.py's ``RefClock``:
every time they report is in reference seconds, wall time corrected for
the shared host's varying speed (see refclock.py).
5. with ``--trace 1``, builds the workload once more under the timing
   spans of spans.py and replays the window traced; the traced window
   must reproduce the untraced window's simulation-exact values.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``).  A failed check prints the workload and the check to
standard error and exits 1 without a result.  Lines before the result
start with ``#`` and carry the calibration rate, the sample counts and
a digest of the simulation-exact values; the full report goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Builds per run; ``setup_s`` is their median.
SETUPS = 5


class CheckFailed(Exception):
    """An output or determinism check failed."""


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# counters the layers already expose
# ----------------------------------------------------------------------


def counters(workload) -> Dict[str, int]:
    """Cumulative simulation-exact counters of the whole system."""
    system = workload.system
    c = {
        "msgs": workload.msgs,
        "bytes": workload.bytes,
        "events": system.context.loop.events_run,
        "timer_fires": 0,
        "cpu_jobs": 0,
        "context_switches": 0,
        "deadline_misses": 0,
        "bundles": 0,
        "components": 0,
        "fragments": 0,
        "flushes_timer": 0,
        "flushes_immediate": 0,
        "rkom_calls": 0,
        "rkom_retransmits": 0,
        "frames": 0,
        "link_frames": 0,
        "drops": 0,
        "max_queue_bytes": 0,
        "resolutions": 0,
        "table_builds": 0,
        "plan_compiles": 0,
        "full_invalidations": 0,
        "dag_prunes": 0,
    }
    for node in system.nodes.values():
        cpu = node.host.cpu
        c["cpu_jobs"] += cpu.items_run
        c["context_switches"] += cpu.context_switches
        c["deadline_misses"] += cpu.deadline_misses
        st = node.st
        c["bundles"] += st.stats.bundles_sent
        c["components"] += st.stats.components_sent
        c["fragments"] += st.stats.fragments_sent
        for peer in st._peers.values():
            if peer.timers is not None:
                c["timer_fires"] += peer.timers.fires
            for queue in peer.queues.values():
                c["flushes_timer"] += queue.flushes_timer
                c["flushes_immediate"] += queue.flushes_immediate
        c["timer_fires"] += node.rkom._timers.fires
        c["rkom_calls"] += node.rkom.stats.calls
        c["rkom_retransmits"] += node.rkom.stats.retransmissions
    for network in system.networks.values():
        c["frames"] += network.frames_delivered
        links = getattr(network, "_links", None)
        links = links.values() if links is not None else [network.segment]
        for link in links:
            stats = link.stats
            c["link_frames"] += stats.frames_transmitted
            c["drops"] += stats.frames_dropped_overrun + stats.frames_dropped_loss
            c["max_queue_bytes"] = max(c["max_queue_bytes"], stats.max_queue_bytes)
        engine = getattr(network, "_engine", None)
        if engine is not None:
            c["resolutions"] += network.route_resolutions
            c["table_builds"] += engine.table_builds
            c["plan_compiles"] += engine.plan_compiles
            c["full_invalidations"] += engine.full_invalidations
            c["dag_prunes"] += engine.dag_prunes
    c.update(workload.extra_counters())
    return c


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    # max_queue_bytes is a high-water mark, not a sum.
    return {
        key: after[key] if key == "max_queue_bytes" else after[key] - before[key]
        for key in after
    }


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------


class Window:
    """Simulation-exact values of one pass over the window epochs."""

    def __init__(self, workload, counts: Dict[str, int], allocs: int) -> None:
        self.counts = counts
        self.allocs = allocs
        self.delays = sorted(workload.delays)
        self.rtts = sorted(workload.rtts)
        self.bound_misses = workload.bound_misses
        self.queue_depth_max = workload.queue_depth_max
        # Peak memory after a fixed amount of work: later epochs depend
        # on the machine's speed, and the RMS stats lists grow with them.
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def exact(self) -> Dict[str, object]:
        """Everything two runs of one seed must reproduce bit for bit."""
        return {
            "counts": self.counts,
            "delays": self.delays,
            "rtts": self.rtts,
            "bound_misses": self.bound_misses,
            "queue_depth_max": self.queue_depth_max,
        }

    def digest(self) -> str:
        blob = json.dumps(self.exact(), sort_keys=True, default=float.hex)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_window(workload, epoch_hook=lambda epoch: epoch()) -> Window:
    """Run the window epochs through ``epoch_hook``: samples cover sends
    of the first ``window_epochs``; one more epoch lets them all arrive."""
    before = counters(workload)
    workload.delays.clear()
    workload.rtts.clear()
    workload.bound_misses = 0
    workload.queue_depth_max = 0
    blocks = sys.getallocatedblocks()
    workload.lo = workload.now
    workload.hi = math.inf
    for index in range(workload.window_epochs + 1):
        if index == workload.window_epochs:
            workload.hi = workload.now
        epoch_hook(workload.epoch)
    workload.lo, workload.hi = math.inf, -math.inf
    allocs = sys.getallocatedblocks() - blocks
    return Window(workload, delta(counters(workload), before), allocs)


def measure(workload, seconds: float, clock):
    """The untraced measured phase under ``clock``: the window, then
    more epochs, in whole cycles of the workload's schedule, until about
    ``seconds`` of wall time have passed.  Returns the window, one record
    per cycle (its client messages, payload bytes and calls, net wall
    seconds and reference seconds) and the window's net wall time."""
    cycle = workload.cycle_epochs
    epochs = [0]
    marks = []

    def snapshot() -> None:
        marks.append((workload.msgs, workload.bytes, workload.calls, clock.mark()))

    def counted(run) -> None:
        run()
        epochs[0] += 1
        if epochs[0] % cycle == 0:
            snapshot()

    gc.collect()
    snapshot()
    window = run_window(workload, counted)
    window_wall, _ = clock.span(marks[0][3], clock.mark())
    # Stop at the cycle boundary nearest to ``seconds``: every run then
    # holds whole cycles, the same mix of work whatever the seed.
    while True:
        while epochs[0] % cycle:
            counted(workload.epoch)
        elapsed = marks[-1][3][0] - marks[0][3][0]
        if elapsed + (marks[-1][3][0] - marks[-2][3][0]) / 2 >= seconds:
            break
        counted(workload.epoch)
    cycles = []
    for before, after in zip(marks, marks[1:]):
        wall_s, ref_s = clock.span(before[3], after[3])
        cycles.append({
            "msgs": after[0] - before[0],
            "bytes": after[1] - before[1],
            "calls": after[2] - before[2],
            "wall_s": wall_s,
            "ref_s": ref_s,
        })
    return window, cycles, window_wall


def cycle_rate(cycles, key: str) -> float:
    """Median over the cycles of ``key`` per reference second.  Every
    cycle does the same work, so the median drops the cycles that a
    passing change in the host's load skewed."""
    return statistics.median(cycle[key] / cycle["ref_s"] for cycle in cycles)


def traced_window(workload_cls, seed: int):
    """Build the workload under the timing spans and replay the window."""
    import spans

    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        workload = workload_cls(seed)
        workload.build()
        recorder.reset()
        gc.collect()
        started = perf_counter()
        window = run_window(workload, recorder.root("epoch"))
        elapsed = perf_counter() - started
    finally:
        recorder.uninstall()
    return recorder, window, elapsed


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end(setup_s: float, cycles, window: Window) -> Dict[str, tuple]:
    return {
        "setup_s": (setup_s, "s"),
        "msgs_per_s": (cycle_rate(cycles, "msgs"), "1/s"),
        "payload_bytes_per_s": (cycle_rate(cycles, "bytes"), "B/s"),
        "sim_delay_p50_ms": (percentile(window.delays, 0.50) * 1e3, "ms"),
        "sim_delay_p99_ms": (percentile(window.delays, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (window.rss_mb, "MB"),
    }


def per_layer(
    window: Window,
    window_wall: float,
    cycles,
    recorder,
    self_ns: List[float],
    traced_wall: float,
    calib_eps: float,
    attempted: int,
    failed: int,
) -> Dict[str, tuple]:
    import spans

    c = window.counts
    msgs = c["msgs"]
    by_component: Dict[str, int] = {}
    by_layer: Dict[str, int] = {}
    for ident, ns in enumerate(self_ns):
        component = recorder.components[ident]
        by_component[component] = by_component.get(component, 0) + ns
        layer = spans.layer_of(component)
        by_layer[layer] = by_layer.get(layer, 0) + ns

    def ids(*suffixes):
        return [i for i, name in enumerate(recorder.names) if name.endswith(suffixes)]

    flap_ns, flaps = recorder.inclusive(ids("Engine.link_down", "Engine.link_up"))
    probe_ns, probes = recorder.inclusive(ids(".can_reach"))
    security_bytes = recorder.security_bytes
    calls = c.get("rkom_calls", 0)
    records = c.get("stream_records", 0)
    traced_rate = ratio(msgs, traced_wall)
    untraced_rate = ratio(msgs, window_wall)
    count, per_msg, ns_msg = "count", "count/msg", "ns/msg"
    return {
        "sim.events_per_msg": (ratio(c["events"], msgs), per_msg),
        "sim.timer_fires_per_msg": (ratio(c["timer_fires"], msgs), per_msg),
        "sim.queue_depth_max": (window.queue_depth_max, count),
        "sim.self_ns_per_msg": (ratio(by_layer.get("sim", 0), msgs), ns_msg),
        "sched.jobs_per_msg": (ratio(c["cpu_jobs"], msgs), per_msg),
        "sched.context_switches_per_msg": (ratio(c["context_switches"], msgs), per_msg),
        "sched.deadline_misses": (c["deadline_misses"], count),
        "sched.self_ns_per_msg": (ratio(by_layer.get("sched", 0), msgs), ns_msg),
        "core.self_ns_per_msg": (ratio(by_layer.get("core", 0), msgs), ns_msg),
        "process.allocs_per_msg": (ratio(window.allocs, msgs), "blocks/msg"),
        "subtransport.components_per_bundle": (
            ratio(c["components"], c["bundles"]), "count/bundle"),
        "subtransport.fragments_per_msg": (ratio(c["fragments"], msgs), per_msg),
        "subtransport.flushes_timer_per_msg": (ratio(c["flushes_timer"], msgs), per_msg),
        "subtransport.flushes_immediate_per_msg": (
            ratio(c["flushes_immediate"], msgs), per_msg),
        "subtransport.self_ns_per_msg": (
            ratio(by_layer.get("subtransport", 0), msgs), ns_msg),
        "security.bytes_per_msg": (ratio(security_bytes, msgs), "B/msg"),
        "security.ns_per_kb": (
            ratio(by_layer.get("security", 0), security_bytes / 1024), "ns/KiB"),
        "security.self_ns_per_msg": (ratio(by_layer.get("security", 0), msgs), ns_msg),
        "netsim.frames_per_msg": (ratio(c["frames"], msgs), per_msg),
        "netsim.hops_per_frame": (ratio(c["link_frames"], c["frames"]), "count/frame"),
        "netsim.drops": (c["drops"], count),
        "netsim.max_queue_bytes": (c["max_queue_bytes"], "B"),
        "netsim.self_ns_per_frame": (
            ratio(by_layer.get("netsim", 0), c["frames"]), "ns/frame"),
        "netsim.routing.resolutions_per_msg": (ratio(c["resolutions"], msgs), per_msg),
        "netsim.routing.table_builds": (c["table_builds"], count),
        "netsim.routing.plan_compiles": (c["plan_compiles"], count),
        "netsim.routing.full_invalidations": (c["full_invalidations"], count),
        "netsim.routing.dag_prunes": (c["dag_prunes"], count),
        "netsim.routing.ns_per_flap": (ratio(flap_ns, flaps), "ns/flap"),
        "netsim.routing.ns_per_probe": (ratio(probe_ns, probes), "ns/probe"),
        "netsim.routing.self_ns_per_msg": (
            ratio(by_layer.get("netsim.routing", 0), msgs), ns_msg),
        "transport.rkom.retransmits_per_call": (
            ratio(c["rkom_retransmits"], calls), "count/call"),
        "transport.rkom.self_ns_per_call": (
            ratio(by_component.get("transport.rkom", 0), calls), "ns/call"),
        "transport.stream.retransmits_per_msg": (
            ratio(c.get("stream_retransmits", 0), records), per_msg),
        "transport.stream.acks_per_msg": (ratio(c.get("stream_acks", 0), records), per_msg),
        "transport.stream.self_ns_per_msg": (
            ratio(by_component.get("transport.stream", 0), records), ns_msg),
        "transport.self_ns_per_msg": (ratio(by_layer.get("transport", 0), msgs), ns_msg),
        "unattributed.ns_per_msg": (ratio(by_layer.get(spans.OTHER, 0), msgs), ns_msg),
        "trace.overhead_ratio": (ratio(traced_rate, untraced_rate), "ratio"),
        "calib.events_per_s": (calib_eps, "1/s"),
        "calls_per_s": (cycle_rate(cycles, "calls"), "1/s"),
        "sim_rtt_p50_ms": (percentile(window.rtts, 0.50) * 1e3, "ms"),
        "sim_rtt_p99_ms": (percentile(window.rtts, 0.99) * 1e3, "ms"),
        "sim_delay_samples": (len(window.delays), count),
        "sim_rtt_samples": (len(window.rtts), count),
        "bound_miss_ratio": (ratio(window.bound_misses, len(window.delays)), "ratio"),
        "error_rate": (ratio(failed, attempted), "ratio"),
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def parse_args(argv: Optional[List[str]]):
    parser = argparse.ArgumentParser(description="Run one DASH benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args) -> Dict[str, object]:
    import calib
    import workloads
    from refclock import RefClock

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; one of "
            f"{sorted(workloads.WORKLOADS)}"
        )
    calib_eps = calib.events_per_second(args.seed)

    seconds = args.seconds / 2 if args.trace else args.seconds
    setups: List[float] = []
    workload = None
    with RefClock() as clock:
        for _ in range(SETUPS):
            workload = None  # free the previous build before the next
            gc.collect()
            start = clock.mark()
            workload = cls(args.seed)
            workload.build()
            setups.append(clock.span(start, clock.mark())[1])
        window, cycles, window_wall = measure(workload, seconds, clock)
        speed_ratio = clock.mean_speed_ratio()
    workload.drain()
    if workload.errors:
        check, detail = workload.errors[0]
        raise CheckFailed(f"{check}: {detail} ({len(workload.errors)} failures)")
    attempted, failed = workload.attempted, workload.failed
    totals = {key: sum(cycle[key] for cycle in cycles) for key in cycles[0]}
    totals["cycles"] = len(cycles)
    report: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setups_ref_s": setups,
        "measured": totals,
        "cycles": cycles,
        "wall_msgs_per_s": totals["msgs"] / totals["wall_s"],
        "host_speed_ratio": speed_ratio,
        "calib.events_per_s": calib_eps,
        "window_digest": window.digest(),
        "window": window.exact(),
        "recovery_ratio": getattr(workload, "recovery_ratio", None),
    }
    metrics = end_to_end(statistics.median(setups), cycles, window)
    del workload
    if args.trace:
        import spans

        gc.collect()
        recorder, traced, traced_wall = traced_window(cls, args.seed)
        if traced.exact() != window.exact():
            raise CheckFailed(
                "traced_window_reproduces_untraced: simulation-exact values "
                f"differ (digest {traced.digest()} vs {window.digest()})"
            )
        overhead = spans.SpanRecorder.overhead()
        self_ns, calls = recorder.self_times(overhead)
        metrics = per_layer(
            window, window_wall, cycles, recorder, self_ns,
            traced_wall, calib_eps, attempted, failed,
        )
        report["span_overhead_ns"] = overhead
        report["spans"] = {
            name: {"component": recorder.components[i], "self_ns": self_ns[i],
                   "calls": calls[i]}
            for i, name in enumerate(recorder.names) if calls[i]
        }
        report["spans_file"] = os.path.relpath(
            recorder.write(OUT_DIR, args.workload), ROOT
        )
    report["metrics"] = {k: v for k, (v, _unit) in metrics.items()}
    return {
        "report": report,
        "result": {
            "correct": True,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro package under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        outcome = bench(args)
    except CheckFailed as failure:
        print(f"perfbench: {args.workload}: check failed: {failure}", file=sys.stderr)
        return 1
    report = outcome["report"]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, default=float.hex)
    window = report["window"]
    measured = report["measured"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cycles={measured['cycles']} wall_s={measured['wall_s']:.3f} "
          f"ref_s={measured['ref_s']:.3f}")
    print(f"# calib.events_per_s={report['calib.events_per_s']:.1f} "
          f"host_speed_ratio={report['host_speed_ratio']:.3f} "
          f"wall_msgs_per_s={report['wall_msgs_per_s']:.1f} "
          f"setups_ref_s={' '.join(f'{s:.4f}' for s in report['setups_ref_s'])}")
    print(f"# window: delay_samples={len(window['delays'])} "
          f"rtt_samples={len(window['rtts'])} sim_digest={report['window_digest']}")
    print(f"# report={os.path.relpath(path, ROOT)}")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
