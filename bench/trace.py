"""Outside-in instrumentation: the phase clock and the layer tracer.

Nothing under ``src/repro`` knows about the benchmark.  Both classes
here work by swapping *public* attributes of ``repro`` classes and
modules for wrappers, and put every original back on ``uninstall``.

* :class:`PhaseClock` is on in every round.  It wraps ``Network.run``
  to split a round into set-up, run and harvest, and drives the run in
  ``RUN_SLICES`` steps of simulated time (the same events in the same
  order; only the number of ``run`` calls differs).  Each step is timed
  on its own, between two passes of a fixed calibration loop that tell
  how fast the host was running just then.
* :class:`Tracer` is on in traced rounds only.  It records one span per
  call into a layer: ``(layer, entry, start, end, parent)``, where the
  layer is the ``repro`` module that owns the code (``net.link``,
  ``runtime.codec``...).  A layer's *self* time is its spans' duration
  minus the part their child spans cover; self times are summed online
  and the first ``KEEP_SPANS`` raw spans are kept for ``--out``.
  Everything that runs inside ``Network.run`` is a descendant of that
  call's root span, so the run-phase self times sum to the traced
  ``run_wall_s`` by construction — that is the ledger.

Spans of one simulator event carry that event's ``(time, lp, lseq)``
key as their id.  Following a packet *across* events is the ROADMAP's
causal-tracing item, not this one.
"""

from __future__ import annotations

import functools
import gc
import heapq
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

_MISSING = object()

#: ``repro`` module prefix -> layer name; first match wins.  Callbacks
#: the simulator runs (scheduled events, microtasks, periodic tasks,
#: socket/connection handlers) are attributed to the layer of the
#: module that *defines* them, which is more precise than the owner of
#: the scheduling context: a node context carries TCP timers, the CPU
#: model's deferred ASP runs and application timers alike.
LAYER_OF_MODULE = (
    ("repro.net.sim", "net.sim"),
    ("repro.net.link", "net.link"),
    ("repro.net.node", "net.node"),
    ("repro.net.udp", "net.udp"),
    ("repro.net.tcp", "net.tcp"),
    ("repro.net.routing", "net.routing"),
    ("repro.net.topology", "net.topology"),
    ("repro.runtime.planp_layer", "runtime.planp_layer"),
    ("repro.runtime.codec", "runtime.codec"),
    ("repro.runtime.deployment", "runtime.deployment"),
    ("repro.jit.pipeline", "jit.pipeline"),
    ("repro.jit", "jit.engine"),
    ("repro.interp", "jit.engine"),
    ("repro.lang", "lang"),
    ("repro.analysis", "analysis"),
    ("repro.apps.http", "apps.http"),
    ("repro.apps.audio", "apps.audio"),
    # load generators: the experiment modules' own callbacks and the
    # benchmark-owned asp_burst injector / deploy_cold loop
    ("repro.experiments", "experiments"),
    ("bench", "experiments"),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Patches:
    """Attribute swaps that can be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._undo.clear()


#: how many steps of simulated time one ``Network.run(until=...)`` call
#: is driven in; see :class:`PhaseClock`
RUN_SLICES = 64

#: interpreter imports are cut into a slice every this many module
#: look-ups (about 25 slices of ~20 ms for ``import repro...``)
IMPORTS_PER_SLICE = 25

#: how many raw spans a traced round keeps for ``--out``
KEEP_SPANS = 20_000

#: what one :func:`calibration_loop` pass takes on the reference host
#: (2.1 GHz Xeon, CPython 3.11, nothing else running).  Slice times are
#: scaled by ``CALIBRATION_REF_S / measured pass``, so run-phase seconds
#: read as "seconds at reference host speed".
CALIBRATION_REF_S = 0.00075


class _Tick:
    __slots__ = ("time", "seq", "fn")

    def __init__(self, time: float, seq: int, fn: Callable) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn

    def __lt__(self, other: "_Tick") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def calibration_loop(n: int = 400) -> int:
    """A fixed piece of work shaped like the simulator's own: a heap of
    small slotted objects ordered by a tuple key, a closure per pop, a
    dict write.  It never changes, so how long it takes measures the
    host, not the program."""
    heap: list[_Tick] = []
    seen: dict[int, float] = {}

    def fn(tick: _Tick) -> None:
        seen[tick.seq & 63] = tick.time

    for i in range(n):
        heapq.heappush(heap, _Tick((i * 7919 % 13) * 0.001, i, fn))
    while heap:
        tick = heapq.heappop(heap)
        tick.fn(tick)
    return len(seen)


class Slices:
    """Consecutive deterministic steps of a round: the seconds each
    took and the mean of the calibration passes on either side of it."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.passes: list[float] = []

    def add(self, seconds: float, before: float, after: float) -> None:
        self.seconds.append(seconds)
        self.passes.append((before + after) / 2)


class PhaseClock:
    """Splits one round into set-up / run / harvest from the outside,
    each phase a list of slices with a calibration pass between every
    two.  Slice ``k`` of a phase is the same work in every round of a
    seed.  The host's speed on the 2-core box moves by +-20 % within
    tenths of a second, and the passes are what lets the parent take
    that out (see ``metrics.calibrated_s``).

    * set-up: ``import repro...`` (cut every ``IMPORTS_PER_SLICE``
      module look-ups by a ``sys.meta_path`` entry that finds nothing),
      then one slice from workload entry to the first run phase;
    * run: a ``Network.run(until=T)`` call is driven as ``RUN_SLICES``
      calls with rising ``until``; a workload that moves no packets
      (``deploy_cold``) brackets its operations with :meth:`run_phase`;
    * harvest: one slice, last run slice to result returned.
    """

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self._clock = time.perf_counter
        self._patches = Patches()
        self.setup = Slices()
        self.run = Slices()
        self.harvest = Slices()
        self.imports_s = 0.0
        self._lookups = 0
        self._pass = 0.0
        self._mark = 0.0
        self._running = False

    # -- calibration ---------------------------------------------------------

    def _calibrate(self) -> float:
        # The pass allocates; a full collection of a 2 000-node heap
        # landing inside it would read as a slow host.
        collecting = gc.isenabled()
        gc.disable()
        begin = self._clock()
        calibration_loop()
        took = self._clock() - begin
        if collecting:
            gc.enable()
        return took

    def _restart(self) -> None:
        """Take a fresh pass and start timing the next slice."""
        self._pass = self._calibrate()
        self._mark = self._clock()

    def _cut(self, into: Slices) -> None:
        """Close the slice that began at the last mark; the pass that
        closes it opens the next one."""
        seconds = self._clock() - self._mark
        before, self._pass = self._pass, self._calibrate()
        into.add(seconds, before, self._pass)
        self._mark = self._clock()

    # -- set-up ------------------------------------------------------------------

    def begin_imports(self) -> None:
        sys.meta_path.insert(0, self)
        self._restart()

    def find_spec(self, name, path=None, target=None):
        """``sys.meta_path`` protocol: asked first for every module not
        yet loaded; finds nothing, cuts a slice every so often."""
        self._lookups += 1
        if self._lookups % IMPORTS_PER_SLICE == 0:
            self._cut(self.setup)
        return None

    def end_imports(self) -> None:
        sys.meta_path.remove(self)
        self._cut(self.setup)
        self.imports_s = sum(self.setup.seconds)

    def install(self) -> None:
        from repro.net.topology import Network

        original = Network.run
        phase = self.run_phase

        @functools.wraps(original)
        def run(net, until=None, **kwargs):
            if until is None:
                with phase("net.sim", "Network.run"):
                    return original(net, **kwargs)
            begin = net.now
            for k in range(1, RUN_SLICES + 1):
                stop = (until if k == RUN_SLICES
                        else begin + (until - begin) * k / RUN_SLICES)
                with phase("net.sim", "Network.run"):
                    original(net, until=stop, **kwargs)

        self._patches.set(Network, "run", run)

    def uninstall(self) -> None:
        self._patches.restore()

    def start(self) -> None:
        """Workload entry."""
        self._restart()

    # -- run and harvest ------------------------------------------------------------

    @contextmanager
    def run_phase(self, layer: str, entry: str) -> Iterator[None]:
        """One slice of the run phase (and, when tracing, one root
        span).  Slices are expected back to back."""
        if not self._running:
            self._running = True
            self._cut(self.setup)
        tracer = self.tracer
        self._mark = self._clock()
        frame = tracer.open_root(layer, entry) if tracer else None
        try:
            yield
        finally:
            if frame is not None:
                tracer.close_root(frame)
            self._cut(self.run)

    def stop(self) -> None:
        """Result returned."""
        self._cut(self.harvest)

    def record(self) -> dict[str, Any]:
        """Plain data for the round record."""
        return {
            "phases": {"import_s": self.imports_s,
                       "setup_s": sum(self.setup.seconds),
                       "run_wall_s": sum(self.run.seconds),
                       "harvest_s": sum(self.harvest.seconds)},
            "slices": {name: {"seconds": slices.seconds,
                              "passes": slices.passes}
                       for name, slices in (("setup", self.setup),
                                            ("run", self.run),
                                            ("harvest", self.harvest))},
        }


class Tracer:
    """Records layer spans through wrappers on public entry points."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._patches = Patches()
        #: phase -> {(layer, entry): [self seconds, calls]}
        self.ledger: dict[str, dict[tuple[str, str], list]] = {
            "setup": {}, "run": {}, "harvest": {}}
        self._acc = self.ledger["setup"]
        #: layer -> seconds inside its outermost run-phase spans
        self.inclusive_s: dict[str, float] = {}
        #: exact counts taken at the wrappers
        self.counts: dict[str, int] = {
            "net.sim.scheduled": 0, "net.sim.cancelled": 0,
            "net.sim.heap_peak": 0, "net.routing.lookups": 0,
            "runtime.codec.batch_decodes": 0, "lang.source_lines": 0,
            "analysis.rejected": 0}
        #: first ``KEEP_SPANS`` raw spans, in opening order:
        #: (id, parent id, event key, layer, entry, start, end)
        self.spans: list[tuple] = []
        self.n_spans = 0
        #: entry points named below that this ``repro`` no longer has
        self.missing: list[str] = []
        self._event_key: tuple | None = None
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._callback_keys: dict[Any, tuple[str, str]] = {}
        self._engine_classes: set[type] = set()

    # -- the span machinery ------------------------------------------------

    def _open(self, key: tuple[str, str]) -> list:
        stack = self._stack
        depth = self._depth
        layer = key[0]
        depth[layer] = depth.get(layer, 0) + 1
        sid = self.n_spans
        self.n_spans = sid + 1
        # frame: key, id, parent id, seconds covered by children, start
        frame = [key, sid, stack[-1][1] if stack else -1, 0.0, 0.0]
        stack.append(frame)
        frame[4] = self._clock()
        return frame

    def _close(self, frame: list) -> None:
        end = self._clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[4]
        if stack:
            stack[-1][3] += duration
        key = frame[0]
        acc = self._acc
        cell = acc.get(key)
        if cell is None:
            cell = acc[key] = [0.0, 0]
        cell[0] += duration - frame[3]
        cell[1] += 1
        layer = key[0]
        depth = self._depth
        left = depth[layer] - 1
        depth[layer] = left
        if left == 0 and acc is self.ledger["run"]:
            self.inclusive_s[layer] = (self.inclusive_s.get(layer, 0.0)
                                       + duration)
        if frame[1] < KEEP_SPANS:
            self.spans.append((frame[1], frame[2], self._event_key,
                               layer, key[1], frame[4], end))

    def span(self, key: tuple[str, str], fn: Callable) -> Callable:
        """``fn`` wrapped so that each call is one span of ``key``."""
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_(key)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        return traced

    def open_root(self, layer: str, entry: str) -> list:
        """Open a run-phase slice's root span; its self time is the
        caller's own loop (the simulator's event loop for
        ``Network.run``)."""
        frame = self._open((layer, entry))
        self._acc = self.ledger["run"]
        return frame

    def close_root(self, frame: list) -> None:
        self._close(frame)
        self._acc = self.ledger["harvest"]

    def _callback_key(self, fn: Callable) -> tuple[str, str]:
        func = getattr(fn, "__func__", fn)
        func = getattr(func, "__wrapped__", func)
        ident = getattr(func, "__code__", None) or type(fn)
        key = self._callback_keys.get(ident)
        if key is None:
            module = getattr(func, "__module__", None) or type(fn).__module__
            name = getattr(func, "__qualname__", type(fn).__name__)
            key = self._callback_keys[ident] = (layer_of_module(module),
                                                name)
        return key

    def callback(self, fn: Callable) -> Callable:
        """A handler someone else will call (socket, connection or
        periodic-task callback), attributed to its defining module."""
        return self.span(self._callback_key(fn), fn)

    def _event(self, fn: Callable[[], None], sim: Any) -> Callable[[], None]:
        """A callback the simulator will run as (part of) one event."""
        key = self._callback_key(fn)
        open_, close = self._open, self._close

        def event() -> None:
            self._event_key = sim.current_event_key
            frame = open_(key)
            try:
                fn()
            finally:
                close(frame)

        return event

    # -- patch helpers -----------------------------------------------------

    def _method(self, owner: type, name: str, layer: str,
                entry: str | None = None) -> None:
        original = vars(owner).get(name, _MISSING)
        if original is _MISSING:
            self.missing.append(f"{owner.__name__}.{name}")
            return
        key = (layer, entry or f"{owner.__name__}.{name}")
        self._patches.set(owner, name, self.span(key, original))

    def _function(self, module: Any, name: str, traced: Callable) -> None:
        """Replace ``module.name`` and every ``from``-imported reference
        to the same function object held by a ``repro`` module."""
        original = getattr(module, name)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith(
                    "repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.set(mod, attr, traced)

    def _slot(self, owner: type, name: str) -> None:
        """Turn the instance attribute ``name`` (a callback slot such as
        ``TcpConnection.on_data``) into a property that wraps whatever
        callable is stored in it."""
        store = f"_bench_{name}"
        wrap = self.callback

        def get(obj):
            return obj.__dict__.get(store)

        def set_(obj, fn):
            obj.__dict__[store] = None if fn is None else wrap(fn)

        self._patches.set(owner, name, property(get, set_))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        from repro.analysis import verifier, wire
        from repro.apps.http.gateway_c import BuiltinGateway
        from repro.jit import pipeline
        from repro.lang import parser, typechecker
        from repro.net import node, routing, sim, tcp, topology, udp
        from repro.runtime import codec, deployment, planp_layer

        self._install_scheduler(sim)
        self._method(node.Interface, "send", "net.link")
        for name in ("receive", "ip_send", "deliver_local",
                     "standard_processing"):
            self._method(node.Node, name, "net.node")
        self._install_register_proto(node.Node)

        for name in ("__init__", "add_host", "add_router", "link",
                     "segment", "attach", "finalize", "metrics_snapshot"):
            self._method(topology.Network, name, "net.topology")
        self._method(topology.Network, "multicast_group", "net.routing")
        self._method(routing.RoutingTable, "add_route", "net.routing")
        self._method(routing.RoutingTable, "set_default", "net.routing")
        self._function(routing, "compute_routes", self.span(
            ("net.routing", "compute_routes"), routing.compute_routes))
        self._install_counter(routing.RoutingTable, "lookup",
                              "net.routing.lookups")

        self._method(udp.UdpStack, "send_from", "net.udp")
        self._slot(udp.UdpSocket, "on_datagram")
        self._method(tcp.TcpStack, "connect", "net.tcp")
        for name in ("send", "close", "abort"):
            self._method(tcp.TcpConnection, name, "net.tcp")
        for name in ("on_connected", "on_data", "on_close", "on_fail"):
            self._slot(tcp.TcpConnection, name)
        self._slot(tcp.TcpListener, "on_accept")

        for name in ("wants", "process", "emit_remote", "emit_neighbor",
                     "deliver", "link_load", "link_bandwidth", "queue_len"):
            self._method(planp_layer.PlanPLayer, name,
                         "runtime.planp_layer")
        for name in ("wants", "process"):
            self._method(BuiltinGateway, name, "apps.http")

        self._install_codec(codec)
        self._install_pipeline(pipeline)
        self._method(deployment.Deployment, "install",
                     "runtime.deployment")
        self._install_frontend(parser, typechecker, verifier, wire, pipeline)

    def uninstall(self) -> None:
        self._patches.restore()

    def _install_scheduler(self, sim: Any) -> None:
        """``schedule``/``post``/``call_soon``/``every``: the call is a
        ``net.sim`` span and the callback it is handed becomes a span of
        the layer that defined it."""
        Simulator = sim.Simulator
        counts = self.counts
        open_, close, event = self._open, self._close, self._event
        schedule_key = ("net.sim", "Simulator.schedule")

        def enqueue(original):
            @functools.wraps(original)
            def traced(simulator, when, fn, **kwargs):
                frame = open_(schedule_key)
                try:
                    handle = original(simulator, when,
                                      event(fn, simulator), **kwargs)
                finally:
                    close(frame)
                counts["net.sim.scheduled"] += 1
                pending = simulator.pending_events
                if pending > counts["net.sim.heap_peak"]:
                    counts["net.sim.heap_peak"] = pending
                return handle

            return traced

        self._patches.set(Simulator, "schedule", enqueue(Simulator.schedule))
        self._patches.set(Simulator, "post", enqueue(Simulator.post))

        call_soon = Simulator.call_soon

        @functools.wraps(call_soon)
        def traced_call_soon(simulator, fn):
            return call_soon(simulator, event(fn, simulator))

        self._patches.set(Simulator, "call_soon", traced_call_soon)

        every = Simulator.every
        callback = self.callback

        @functools.wraps(every)
        def traced_every(simulator, interval, fn, *args, **kwargs):
            return every(simulator, interval, callback(fn), *args, **kwargs)

        self._patches.set(Simulator, "every", traced_every)

        cancel = sim.EventHandle.cancel

        @functools.wraps(cancel)
        def traced_cancel(handle):
            was = handle.cancelled
            cancel(handle)
            if handle.cancelled and not was:
                counts["net.sim.cancelled"] += 1

        self._patches.set(sim.EventHandle, "cancel", traced_cancel)

    def _install_register_proto(self, Node: type) -> None:
        """Transport input handlers (``UdpStack``/``TcpStack`` packet
        entry) are private, but they reach the node through the public
        ``register_proto``; wrap them there."""
        register = Node.register_proto
        callback = self.callback

        @functools.wraps(register)
        def register_proto(node, proto, handler):
            return register(node, proto, callback(handler))

        self._patches.set(Node, "register_proto", register_proto)

    def _install_counter(self, owner: type, name: str, count: str) -> None:
        """Count calls without opening a span (the callee's time stays
        with its caller's layer)."""
        original = getattr(owner, name)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[count] += 1
            return original(*args, **kwargs)

        self._patches.set(owner, name, counted)

    def _install_codec(self, codec: Any) -> None:
        decode_key = ("runtime.codec", "decode")
        self._function(codec, "encode", self.span(
            ("runtime.codec", "encode"), codec.encode))
        self._function(codec, "decode", self.span(decode_key, codec.decode))
        make_decoder = codec.make_decoder
        span = self.span

        @functools.wraps(make_decoder)
        def traced_make_decoder(packet_type):
            return span(decode_key, make_decoder(packet_type))

        self._function(codec, "make_decoder", traced_make_decoder)
        # Batch decoding happens lazily inside PacketBatch accessors.
        for name in ("soa", "column", "rows"):
            self._method(codec.PacketBatch, name, "runtime.codec",
                         "decode_batch")
        batch = codec.BatchDecoder.batch
        counts = self.counts

        @functools.wraps(batch)
        def counted_batch(decoder, packets):
            counts["runtime.codec.batch_decodes"] += len(packets)
            return batch(decoder, packets)

        self._patches.set(codec.BatchDecoder, "batch", counted_batch)

    def _trace_engine_class(self, cls: type) -> None:
        if cls in self._engine_classes:
            return
        self._engine_classes.add(cls)
        for name in ("run_channel", "run_channel_batch"):
            if hasattr(cls, name):
                self._patches.set(cls, name, self.span(
                    ("jit.engine", name), getattr(cls, name)))

    def _install_pipeline(self, pipeline: Any) -> None:
        """Code generation is ``ProgramCache.engine_artifact`` plus
        ``make_engine``, keyed by backend; engines that come out of
        ``make_engine`` get their run entry points traced by class."""
        open_, close = self._open, self._close
        make_engine = pipeline.make_engine
        trace_class = self._trace_engine_class

        @functools.wraps(make_engine)
        def traced_make_engine(info, backend, *args, **kwargs):
            frame = open_(("jit.pipeline", f"codegen.{backend}"))
            try:
                engine = make_engine(info, backend, *args, **kwargs)
            finally:
                close(frame)
            trace_class(type(engine))
            return engine

        self._function(pipeline, "make_engine", traced_make_engine)
        artifact = pipeline.ProgramCache.engine_artifact

        @functools.wraps(artifact)
        def traced_artifact(cache, key, info, backend):
            frame = open_(("jit.pipeline", f"codegen.{backend}"))
            try:
                return artifact(cache, key, info, backend)
            finally:
                close(frame)

        self._patches.set(pipeline.ProgramCache, "engine_artifact",
                          traced_artifact)

    def _install_frontend(self, parser: Any, typechecker: Any,
                          verifier: Any, wire: Any, pipeline: Any) -> None:
        counts = self.counts
        parse = self.span(("lang", "parse"), parser.parse)

        @functools.wraps(parser.parse)
        def counted_parse(source, *args, **kwargs):
            counts["lang.source_lines"] += pipeline.count_source_lines(source)
            return parse(source, *args, **kwargs)

        self._function(parser, "parse", counted_parse)
        self._function(typechecker, "typecheck", self.span(
            ("lang", "typecheck"), typechecker.typecheck))
        verify = self.span(("analysis", "verify"), verifier.verify_report)

        @functools.wraps(verifier.verify_report)
        def counted_verify(info):
            report = verify(info)
            if not report.passed:
                counts["analysis.rejected"] += 1
            return report

        self._function(verifier, "verify_report", counted_verify)
        self._function(wire, "wire_summary", self.span(
            ("analysis", "wire"), wire.wire_summary))

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Plain data for the round record (keys joined with ``|``)."""
        return {
            "ledger": {phase: {f"{layer}|{entry}": cell
                               for (layer, entry), cell in acc.items()}
                       for phase, acc in self.ledger.items()},
            "inclusive_s": dict(self.inclusive_s),
            "counts": dict(self.counts),
            "n_spans": self.n_spans,
            "missing": list(self.missing),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            for sid, parent, event, layer, entry, start, end in self.spans:
                out.write(json.dumps(
                    {"id": sid, "parent": parent, "event": event,
                     "layer": layer, "entry": entry,
                     "start": start, "end": end}) + "\n")
