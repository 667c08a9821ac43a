"""Timing spans around the layers' public functions (the traced run).

The wrappers are installed on the classes, from this file, before the
traced system is built: ``RoutePlan`` deliver callbacks, the
``SecurityContext`` provider methods and the ST fast flushers are bound
at construction or negotiation, so a wrapper installed later would miss
them.  Nothing in ``src/`` changes, and ``observe`` stays off: turning
it on moves the ST and netsim onto their slow paths, which would trace
a different program.

Two kinds of span are recorded:

* **method spans** around the public functions named in ``METHODS``;
* **callback spans** around every callback handed to a dispatch point
  (``EventLoop.call_at``/``call_soon``, ``TimerGroup.call_at``,
  ``HostCpu.submit``/``submit_fast``, ``Port.set_handler``,
  ``Signal.listen``).  A callback span is named after the function that
  runs and belongs to the layer of the module that defines it, so work
  the event loop dispatches lands on the layer that does it.

A span holds its name, start, end and parent span, in flat arrays kept
in memory and written out at the end.  Its self time is its duration
minus the durations of its child spans.  Time in no layer span -- the
benchmark's own code between calls, and callbacks from modules outside
the layers (``repro.dash``, ``repro.resilience``, this benchmark) -- is
reported as unattributed.
"""

from __future__ import annotations

import json
import os
import statistics
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

from repro.core.rms import Rms
from repro.netsim.ethernet import EthernetNetwork
from repro.netsim.internet import InternetNetwork
from repro.netsim.network import Network, NetworkRms
from repro.netsim.routing import ForwardingEngine
from repro.sched.cpu import HostCpu
from repro.security import providers
from repro.sim.events import EventLoop, Signal, TimerGroup
from repro.sim.ports import Port
from repro.subtransport.piggyback import PiggybackQueue
from repro.subtransport.strms import StRms
from repro.transport.rkom import RkomService
from repro.transport.stream import StreamSession

#: The layers, named after the ``repro`` packages (longest prefix wins).
#: ``transport`` is split by protocol so RKOM and stream costs separate.
COMPONENTS: Tuple[Tuple[str, str], ...] = (
    ("repro.netsim.routing", "netsim.routing"),
    ("repro.netsim", "netsim"),
    ("repro.transport.rkom", "transport.rkom"),
    ("repro.transport.stream", "transport.stream"),
    ("repro.transport", "transport"),
    ("repro.subtransport", "subtransport"),
    ("repro.security", "security"),
    ("repro.sched", "sched"),
    ("repro.core", "core"),
    ("repro.sim", "sim"),
)
#: Component of spans that belong to no layer.
OTHER = "other"


def _noop(*_args) -> None:
    return None


def component_of(module: str) -> str:
    for prefix, component in COMPONENTS:
        if module == prefix or module.startswith(prefix + "."):
            return component
    return OTHER


def layer_of(component: str) -> str:
    """``transport.rkom`` -> ``transport``; ``netsim.routing`` stays."""
    if component.startswith("transport"):
        return "transport"
    return component


def _security_methods() -> List[Tuple[type, str, str, int]]:
    """Every provider class's own seal/open/mac/verify, with the index
    of the data argument (``self`` is 0) for byte counting."""
    found = []
    for cls in vars(providers).values():
        if not (isinstance(cls, type) and cls.__module__ == providers.__name__):
            continue
        for attr, data_arg in (("seal", 2), ("open", 2), ("mac", 1), ("verify", 1)):
            if attr in vars(cls):
                found.append((cls, attr, "security", data_arg))
    return found


#: (class, method, component, data-argument index or -1): the public
#: functions each layer exposes to the layer above.
METHODS: List[Tuple[type, str, str, int]] = [
    (EventLoop, "run", "sim", -1),
    (HostCpu, "submit_protocol_stage", "sched", -1),
    (StRms, "send", "subtransport", -1),
    (PiggybackQueue, "submit", "subtransport", -1),
    (PiggybackQueue, "submit_fast", "subtransport", -1),
    (PiggybackQueue, "flush", "subtransport", -1),
    (Rms, "send", "core", -1),
    (Rms, "send_fast", "core", -1),
    (Rms, "deliver_fast", "core", -1),
    (NetworkRms, "send_data_fast", "netsim", -1),
    (ForwardingEngine, "plan", "netsim.routing", -1),
    (ForwardingEngine, "plan_for_flow", "netsim.routing", -1),
    (ForwardingEngine, "link_down", "netsim.routing", -1),
    (ForwardingEngine, "link_up", "netsim.routing", -1),
    (Network, "can_reach", "netsim.routing", -1),
    (EthernetNetwork, "can_reach", "netsim.routing", -1),
    (InternetNetwork, "can_reach", "netsim.routing", -1),
    (RkomService, "call", "transport.rkom", -1),
    (StreamSession, "send", "transport.stream", -1),
    (StreamSession, "receive", "transport.stream", -1),
]

#: (class, method, component, callback position after ``self``):
#: dispatch points whose callbacks get their own spans.  Every caller
#: passes the callback positionally.  The dispatch call itself is a span
#: of ``component`` too (``None``: no span).
DISPATCH: List[Tuple[type, str, object, int]] = [
    (EventLoop, "call_at", "sim", 2),
    (EventLoop, "call_soon", "sim", 1),
    (TimerGroup, "call_at", "sim", 2),
    (HostCpu, "submit", "sched", 4),
    (HostCpu, "submit_fast", "sched", 4),
    (Port, "set_handler", None, 1),
    (Signal, "listen", None, 1),
]


class SpanRecorder:
    """Spans in flat arrays: name id, parent index, start, end (ns)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.components: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._callback_ids: Dict[object, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: List[int] = []
        #: Bytes handed to the outermost security provider call.
        self.security_bytes = 0
        self._saved: List[Tuple[type, str, object]] = []
        self.enabled = False
        self._span = self._span_factory()
        self._wrap = self._wrap_callback()
        #: Names of dispatch spans (their self time includes wrapping the
        #: callback, which ``overhead`` takes back out).
        self.dispatch_ids: List[int] = []

    # -- names --------------------------------------------------------------

    def name_id(self, name: str, component: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = len(self.names)
            self.names.append(name)
            self.components.append(component)
            self._name_ids[name] = ident
        return ident

    def callback_id(self, callback) -> int:
        """Span name of a callback: its module and qualified name, keyed
        by code object (builtins without one by type)."""
        func = getattr(callback, "__func__", callback)
        key = getattr(func, "__code__", None) or type(func)
        ident = self._callback_ids.get(key)
        if ident is None:
            module = getattr(func, "__module__", None) or type(func).__module__
            qualname = getattr(func, "__qualname__", None) or type(func).__qualname__
            ident = self.name_id(f"{module}:{qualname}", component_of(module))
            self._callback_ids[key] = ident
        return ident

    # -- wrappers -----------------------------------------------------------

    def _span_factory(self) -> Callable[[Callable, int], Callable]:
        """``span(func, ident)`` -> ``func`` wrapped in a span named
        ``ident``; the recorder's arrays are bound once, here."""
        names = self.name.append
        parents = self.parent.append
        starts = self.start.append
        ends_append = self.end.append
        ends = self.end
        stack = self.stack
        push = stack.append
        pop = stack.pop

        def span(func: Callable, ident: int) -> Callable:
            def traced(*args, **kwargs):
                index = len(ends)
                names(ident)
                parents(stack[-1] if stack else -1)
                ends_append(0)
                push(index)
                starts(perf_counter_ns())
                try:
                    return func(*args, **kwargs)
                finally:
                    ends[index] = perf_counter_ns()
                    pop()

            return traced

        return span

    def _counting_span(self, func: Callable, ident: int, data_arg: int) -> Callable:
        """A span that also counts the bytes of argument ``data_arg``
        when it is the outermost span of its component (``open`` calling
        ``seal`` counts once)."""
        traced_func = self._span(func, ident)
        components = self.components
        names = self.name
        stack = self.stack
        component = components[ident]

        def traced(*args, **kwargs):
            if not stack or components[names[stack[-1]]] != component:
                data = args[data_arg] if len(args) > data_arg else kwargs["data"]
                self.security_bytes += len(data)
            return traced_func(*args, **kwargs)

        return traced

    def _wrap_callback(self) -> Callable:
        """``wrap(callback)`` -> ``callback`` in a span named after it
        (``None``, already wrapped callbacks and a disabled recorder pass
        through unchanged)."""
        span = self._span
        traced_code = span(_noop, 0).__code__
        by_code = self._callback_ids
        callback_id = self.callback_id

        def wrap(callback):
            code = getattr(callback, "__code__", None)
            if code is traced_code or callback is None or not self.enabled:
                return callback
            ident = by_code.get(code)
            if ident is None:
                ident = callback_id(callback)
            return span(callback, ident)

        return wrap

    def _dispatch(self, func: Callable, ident, cb_index: int) -> Callable:
        """Wrap a dispatch point: its callback argument (``cb_index``
        positions after ``self``) gets a span."""
        wrap = self._wrap
        if cb_index == 1:
            def traced(obj, callback, *args, **kwargs):
                return func(obj, wrap(callback), *args, **kwargs)
        elif cb_index == 2:
            def traced(obj, first, callback, *args, **kwargs):
                return func(obj, first, wrap(callback), *args, **kwargs)
        elif cb_index == 4:
            def traced(obj, first, second, third, callback, *args, **kwargs):
                return func(obj, first, second, third, wrap(callback), *args, **kwargs)
        else:
            raise ValueError(f"no dispatch wrapper for argument {cb_index}")
        if ident is None:
            return traced
        return self._span(traced, ident)

    def install(self) -> None:
        """Wrap every method in METHODS and DISPATCH on its class."""
        if self._saved:
            raise RuntimeError("spans already installed")
        for cls, attr, component, data_arg in METHODS + _security_methods():
            original = vars(cls)[attr]
            ident = self.name_id(f"{cls.__name__}.{attr}", component)
            if data_arg >= 0:
                wrapper = self._counting_span(original, ident, data_arg)
            else:
                wrapper = self._span(original, ident)
            self._saved.append((cls, attr, original))
            setattr(cls, attr, wrapper)
        for cls, attr, component, cb_index in DISPATCH:
            original = vars(cls)[attr]
            ident = (
                None if component is None
                else self.name_id(f"{cls.__name__}.{attr}", component)
            )
            if ident is not None:
                self.dispatch_ids.append(ident)
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._dispatch(original, ident, cb_index))
        self.enabled = True

    def uninstall(self) -> None:
        """Restore the original methods (callbacks already wrapped keep
        recording until they are dropped, which is harmless)."""
        self.enabled = False
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()

    def root(self, name: str) -> Callable:
        """A span for the benchmark's own code (component ``other``)."""
        ident = self.name_id(name, OTHER)

        def call(func, *args):
            return self._span(func, ident)(*args)

        return call

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        """Forget recorded spans (keeps names and installed wrappers)."""
        if self.stack:
            raise RuntimeError("reset inside an open span")
        for buf in (self.name, self.parent, self.start, self.end):
            del buf[:]
        self.security_bytes = 0

    def self_times(self, overhead: Dict[str, float]) -> Tuple[List[float], List[int]]:
        """Per span name: (self ns, calls), with the tracer's own cost
        taken back out: ``overhead["inner"]`` ns from every span,
        ``overhead["outer"]`` ns from the parent of every span, and
        ``overhead["wrap"]`` ns from every dispatch span."""
        count = len(self.names)
        self_ns = [0.0] * count
        calls = [0] * count
        name, parent, start, end = self.name, self.parent, self.start, self.end
        child_ns = array("q", [0]) * len(end)
        children = array("i", [0]) * len(end)
        # Children are appended after their parent, so a reverse scan
        # has every child summed before its parent is seen.
        for index in range(len(end) - 1, -1, -1):
            duration = end[index] - start[index]
            ident = name[index]
            self_ns[ident] += duration - child_ns[index]
            calls[ident] += 1
            up = parent[index]
            if up >= 0:
                child_ns[up] += duration
                children[up] += 1
        outer = [0] * count
        for index in range(len(end)):
            outer[name[index]] += children[index]
        for ident in range(count):
            self_ns[ident] -= overhead["inner"] * calls[ident] + overhead["outer"] * outer[ident]
        for ident in self.dispatch_ids:
            self_ns[ident] -= overhead["wrap"] * calls[ident]
        return self_ns, calls

    def inclusive(self, idents) -> Tuple[int, int]:
        """(ns, calls) of the outermost spans named in ``idents``: spans
        whose parent is not itself in ``idents``."""
        idents = set(idents)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        total = calls = 0
        for index in range(len(end)):
            if name[index] in idents:
                up = parent[index]
                if up < 0 or name[up] not in idents:
                    total += end[index] - start[index]
                    calls += 1
        return total, calls

    @staticmethod
    def overhead(calls: int = 10000, passes: int = 7) -> Dict[str, float]:
        """The tracer's own cost per span, measured on a no-op: ``inner``
        (inside the recorded interval), ``outer`` (outside it, so charged
        to the parent span) and ``wrap`` (wrapping one callback at a
        dispatch point).  Medians over ``passes``."""

        def noop(*_args):
            return None

        def per_call(func, *args) -> float:
            started = perf_counter_ns()
            for _ in range(calls):
                func(*args)
            return (perf_counter_ns() - started) / calls

        samples = {"inner": [], "outer": [], "wrap": []}
        for _ in range(passes):
            recorder = SpanRecorder()
            recorder.enabled = True
            traced = recorder._span(noop, recorder.name_id("noop", OTHER))
            plain = per_call(noop)
            total = per_call(traced)
            recorded = (sum(recorder.end) - sum(recorder.start)) / len(recorder.end)
            samples["inner"].append(recorded - plain)
            samples["outer"].append(total - recorded)
            dispatch = recorder._dispatch(noop, None, 1)
            samples["wrap"].append(per_call(dispatch, 0.0, noop) - per_call(noop, 0.0, noop))
        return {key: statistics.median(values) for key, values in samples.items()}

    def write(self, directory: str, tag: str) -> str:
        """Write the spans -- four consecutive native-endian arrays of
        ``spans`` entries: name id, parent index, start ns, end ns -- and
        their name table."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"spans-{tag}")
        with open(path + ".bin", "wb") as handle:
            for buf in (self.name, self.parent, self.start, self.end):
                buf.tofile(handle)
        with open(path + ".json", "w") as handle:
            json.dump({
                "spans": len(self.end),
                "arrays": ["name:int32", "parent:int32", "start_ns:int64", "end_ns:int64"],
                "names": self.names,
                "components": self.components,
            }, handle)
        return path
