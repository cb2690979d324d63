"""The IP/PLAN-P layer of a node (paper figure 1).

One instance per node holds the downloaded program and its dispatch core
(match table, interpreter or JIT engine, shared protocol state and
per-channel states), and implements the :class:`ExecutionContext`
primitives against the node.

Dispatch rules (paper §2 and §2.3):

* a packet tagged with a user-defined channel name runs that channel;
* an untagged packet runs the first ``network`` overload whose declared
  packet type matches the wire packet;
* unmatched packets fall through to standard IP processing.

Classification, grouping, decoding, execution and the commit-or-contain
rule live in :class:`~repro.runtime.dispatch.DispatchCore`; this module
is the part that needs a node.  A packet is classified exactly once:
:meth:`PlanPLayer.match` returns the hit, and the node hands it to
:meth:`PlanPLayer.process`, which runs a packet on its own through one
:meth:`~repro.runtime.dispatch.DispatchCore.run_one` call.

A verified program cannot raise at run time on any *delivered* path, but
the layer still guards: if a channel invocation fails — including a
decoder choking on a truncated or garbage payload, or an emission that
cannot be encoded — the packet falls back to standard processing and the
error is counted — an unverified (privileged) program must not take the
node down.

The layer also carries the hooks of the ASP lifecycle manager
(:mod:`repro.runtime.lifecycle`): per-packet success/error callbacks
feeding the node's error-budget circuit breaker, and
:meth:`snapshot_program` / :meth:`restore_program` so a rollback can
reinstate the previous generation *with* its protocol and channel
state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..jit.pipeline import (DEFAULT_BACKEND, Engine, LoadedProgram,
                            load_program)
from ..lang import ast
from ..net.addresses import HostAddr
from ..net.node import Interface, Node
from ..net.packet import PROTO_RAW, Packet, next_uid
from ..net.sim import SerialResource
from ..obs.metrics import Histogram
from . import codec
from .dispatch import DispatchCore, Hit, group_runs

if TYPE_CHECKING:
    from .lifecycle import NodeLifecycle


@dataclass
class PlanPStats:
    packets_processed: int = 0
    packets_emitted: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    runtime_errors: int = 0
    #: dispatch decisions answered by the precomputed match table
    fastpath_dispatches: int = 0
    #: always 0: the structural matcher is gone.  The field stays until
    #: the next re-pin of the golden digests, which cover every key
    structural_dispatches: int = 0
    #: tier-3 batch executions (same-entry runs of two or more packets
    #: folded through one specialized loop)
    fastpath_batches: int = 0
    #: packets that went through those batch executions
    batched_packets: int = 0


@dataclass
class ProgramSnapshot:
    """A program plus its live state, captured for rollback.

    The lifecycle manager snapshots the running generation before a new
    one replaces it; :meth:`PlanPLayer.restore_program` reinstates the
    program *and* the protocol/channel state it had accumulated —
    rollback does not reset a restored protocol to its initial state.
    """

    loaded: LoadedProgram
    protocol_state: object
    channel_states: dict[int, object] = field(default_factory=dict)


class PlanPLayer:
    """The extensible packet-processing layer of one node."""

    def __init__(self, node: Node, promiscuous: bool = False):
        self.node = node
        node.planp = self
        #: promiscuous layers also see traffic not addressed to the node
        #: (hosts only; the MPEG capture ASP needs this, paper §3.3)
        self.promiscuous = promiscuous
        self.loaded: LoadedProgram | None = None
        #: the installed program's match table, engine and live state
        #: (``None`` while nothing is installed)
        self.core: DispatchCore | None = None
        self.stats = PlanPStats()
        self.console: list[str] = []
        #: the one record of what this node should be running: the last
        #: program adopted (installed or restored) and not since removed
        #: by :meth:`uninstall`.  It survives a crash, and is what a
        #: deployment service replays on restart.
        self.manifest: LoadedProgram | None = None
        node.crash_hooks.append(self.on_crash)
        #: per-packet execution cost charged to the node (0 = free);
        #: models the CPU the paper's gateway burns per packet
        self.cpu = SerialResource(node.sim)
        #: tier-3 batch drain: while the running engine brings a batch
        #: fold, up to this many packets queued during one scheduler
        #: activation run as batches through it (0 disables; routers
        #: default it on via Node.batch_size)
        self.batch_size = node.batch_size
        #: packets enqueued during the current event, drained at its
        #: end: parallel lists of packets, arrival interfaces and hits
        self._pending: tuple[list, list, list] = ([], [], [])
        self._drain_scheduled = False
        #: the packet being executed on its own and its arrival
        #: interface (``None`` outside :meth:`_run_one`)
        self._packet: Packet | None = None
        self._iface: Interface | None = None
        #: the run of two or more being executed — (packets, their
        #: arrival interfaces, the hit they share) — and the row the
        #: engine has in hand: the core sets ``_base`` to the row an
        #: engine call starts at, engines count ``_row`` from there.
        #: Both are 0 outside a run.
        self._run: tuple[list, list, Hit] | None = None
        self._base = 0
        self._row = 0
        #: the last row of the run that emitted or delivered (a failed
        #: row that already emitted must not also be forwarded)
        self._emit_row = -1
        #: what the core reports a run's rows through, bound once: a
        #: packet does not pay for two method objects
        self._ok, self._fault = self._on_ok, self._on_fault
        self._batch_hist: Histogram | None = None
        #: the node's lifecycle handle (set by
        #: :meth:`repro.runtime.lifecycle.LifecycleManager.manage`);
        #: ``None`` keeps the packet path at one attribute check
        self.lifecycle: "NodeLifecycle | None" = None

    # -- program installation ---------------------------------------------------

    def install(self, source: str, *, backend: str = DEFAULT_BACKEND,
                verify: bool = True, source_name: str = "") -> LoadedProgram:
        """Download a program: parse, type check, verify, compile.

        ``verify=False`` is the authenticated-privileged-user path the
        paper reserves for protocols the analyses cannot prove.
        """
        loaded = load_program(source, backend=backend, verify=verify,
                              ctx=self,
                              source_name=source_name or
                              f"<asp@{self.node.name}>")
        self.install_loaded(loaded)
        return loaded

    def install_loaded(self, loaded: LoadedProgram) -> None:
        if self.lifecycle is not None:
            # Versioned history: snapshot the superseded generation's
            # program + state so a rollback can restore it.
            self.lifecycle.before_install(loaded)
        self._adopt(loaded, "install")
        if self.lifecycle is not None:
            self.lifecycle.on_install(loaded)

    def _adopt(self, loaded: LoadedProgram, action: str,
               snap: ProgramSnapshot | None = None) -> None:
        """Make ``loaded`` the running program, in its initial state or
        in the state ``snap`` captured."""
        engine = loaded.engine
        # (Re)installation hook: an engine moved from another node must
        # drop node-bound state (the interpreter's cached globals env).
        on_install = getattr(engine, "on_install", None)
        if on_install is not None:
            on_install(self)
        channels = loaded.info.all_channels()
        if snap is None:
            self.core = DispatchCore.fresh(channels, engine, self)
        else:
            self.core = DispatchCore(channels, engine, snap.protocol_state,
                                     dict(snap.channel_states))
        self.loaded = self.manifest = loaded
        obs = self.node.obs
        if obs is not None:
            obs.events.emit("deploy", node=self.node.name, action=action,
                            sha=loaded.source_sha,
                            engine=type(engine).__name__)

    @property
    def engine(self) -> Engine | None:
        return self.core.engine if self.core is not None else None

    @engine.setter
    def engine(self, engine: Engine) -> None:
        """Swap the running program's engine in place (fault drills
        wrap it); state and classification are untouched."""
        self.core.use_engine(engine)

    @property
    def protocol_state(self) -> object:
        return self.core.protocol_state if self.core is not None else None

    @property
    def channel_states(self) -> dict[int, object]:
        return self.core.channel_states if self.core is not None else {}

    @property
    def current_sha(self) -> str | None:
        """Digest of the running program (None when nothing is loaded)."""
        return self.loaded.source_sha if self.loaded is not None else None

    def uninstall(self) -> None:
        """Remove the program — every trace of its run-time state, so a
        later reinstall starts from a clean slate, and the record that
        it should run here, so no restart brings it back.  Operator
        removal, quarantine and rollback-to-nothing all end here."""
        self.on_crash()
        self.manifest = None

    def on_crash(self) -> None:
        """The node's crash hook: the program, its engine, match table
        and protocol/channel states are volatile; :attr:`manifest` is
        not."""
        self.loaded = None
        self.core = None

    # -- lifecycle support (rollback with state) ---------------------------------

    def snapshot_program(self) -> ProgramSnapshot | None:
        """Capture the running program plus its live protocol/channel
        state (``None`` when nothing is installed)."""
        if self.loaded is None:
            return None
        return ProgramSnapshot(loaded=self.loaded,
                               protocol_state=self.protocol_state,
                               channel_states=dict(self.channel_states))

    def restore_program(self, snap: ProgramSnapshot) -> None:
        """Reinstate a snapshotted generation *with* its state.

        The rollback path of :mod:`repro.runtime.lifecycle`: unlike
        :meth:`install_loaded`, the protocol and channel states come
        back exactly as the generation left them.  Lifecycle hooks are
        *not* re-entered — the manager that restores also bookkeeps.
        """
        self._adopt(snap.loaded, "restore", snap)

    # -- dispatch -----------------------------------------------------------------

    def match(self, packet: Packet) -> Hit | None:
        """Classify an arriving packet: the hit of the overload that
        takes it, to be handed to :meth:`process`, or None when
        standard IP processing should."""
        core = self.core
        if core is None:
            return None
        entries = core.table.get((packet.channel, packet.transport.__class__))
        if not entries:
            return None
        # Counted whenever the program declares an overload for the
        # packet's tag and transport class, admitted or not.
        self.stats.fastpath_dispatches += 1
        return core.admitting(entries, packet)

    def wants(self, packet: Packet, iface: Interface | None) -> bool:
        """Would :meth:`match` take the packet?  (The node asks
        :meth:`match`; ``bench/trace.py`` wraps this method by name.)"""
        return self.match(packet) is not None

    def process(self, packet: Packet, iface: Interface | None,
                hit: Hit) -> None:
        """Run the channel :meth:`match` chose for an arriving packet
        (through the node's CPU model, if one is configured)."""
        if self.cpu.per_item_s > 0:
            # A crash powers the CPU queue off with the node: work that
            # was waiting must not run on, or be forwarded by, a node
            # that has been down since it was queued.
            crashes = self.node.stats.crashes
            self.cpu.submit(lambda: self._run_one(packet, iface, hit)
                            if self.node.stats.crashes == crashes
                            else self._drop_down(packet))
            return
        if self.batch_size > 1 and self.core.fold is not None:
            # Tier 3: defer to the end of the current event, so several
            # packets delivered by one scheduler activation coalesce
            # into same-overload runs for the engine's fold.
            packets, ifaces, hits = self._pending
            packets.append(packet)
            ifaces.append(iface)
            hits.append(hit)
            if not self._drain_scheduled:
                self._drain_scheduled = True
                self.node.sim.call_soon(self._drain_batch)
            return
        self._run_one(packet, iface, hit)

    def _drain_batch(self) -> None:
        """Run everything enqueued during the event that just finished,
        grouped by the core's rule with runs capped at ``batch_size``.
        Packet order — and therefore every emission's scheduling order —
        is exactly the enqueue order."""
        self._drain_scheduled = False
        packets, ifaces, hits = self._pending
        self._pending = ([], [], [])
        for i, j in group_runs(hits, self.batch_size):
            if j - i == 1:
                self._run_one(packets[i], ifaces[i], hits[i])
            else:
                self._execute(packets[i:j], ifaces[i:j], hits[i])

    def _run_one(self, packet: Packet, iface: Interface | None,
                 hit: Hit) -> None:
        """Hand one packet to the dispatch core and account for what it
        committed or contained."""
        core = self.core
        if core is None or hit.stamp is not core.stamp:
            # Classified before the program was uninstalled, quarantined
            # or replaced: the running core's hit for the same overload
            # runs it, and without one the packet predates the change
            # and gets standard treatment — not an error.
            hit = core and core.rebind(hit)
            if hit is None:
                self._fallback(packet, iface)
                return
        self._packet = packet
        self._iface = iface
        self._emit_row = -1
        try:
            fault = core.run_one(packet, hit, self)
        finally:
            self._packet = self._iface = None
        self.stats.packets_processed += 1
        if fault is None:
            if self.lifecycle is not None:
                self.lifecycle.on_packet_ok()
            return
        # Fail open, as _on_fault does for a row of a longer run.
        reason, err = fault
        self._contain(hit.decl, err, reason)
        if self._emit_row != 0:
            self._fallback(packet, iface)

    def _batch_histogram(self) -> Histogram | None:
        hist = self._batch_hist
        if hist is None:
            obs = self.node.obs
            if obs is None:
                return None
            hist = self._batch_hist = obs.metrics.histogram(
                f"node.{self.node.name}.planp.batch_size")
        return hist

    def _execute(self, packets: list, ifaces: list, hit: Hit) -> None:
        """Hand a same-overload run of two or more to the dispatch core.
        What the core commits or contains comes back through
        :meth:`_on_ok` / :meth:`_on_fault`, which keep the accounting
        packet for packet what runs of one would have produced.  A run
        the core cannot fold (its engine changed) is no batch."""
        core = self.core
        if core is None or hit.stamp is not core.stamp:
            hit = core and core.rebind(hit)  # as in _run_one
            if hit is None:
                for packet, iface in zip(packets, ifaces):
                    self._fallback(packet, iface)
                return
        if core.fold is not None:
            self.stats.fastpath_batches += 1
            self.stats.batched_packets += len(packets)
            hist = self._batch_histogram()
            if hist is not None:
                hist.observe(len(packets))
        self._run = (packets, ifaces, hit)
        self._emit_row = -1
        try:
            core.run(packets, hit, self, self._ok, self._fault)
        finally:
            self._run = None
            self._base = self._row = 0

    def _on_ok(self, rows: int) -> None:
        self.stats.packets_processed += rows
        lifecycle = self.lifecycle
        if lifecycle is not None:
            for _ in range(rows):
                lifecycle.on_packet_ok()

    def _on_fault(self, row: int, reason: str, err: Exception) -> bool:
        """Fail open: the node survives, the error is counted and fed to
        the circuit breaker, and the packet gets standard treatment —
        unless the failed invocation had already emitted it, when
        falling back would duplicate it."""
        packets, ifaces, hit = self._run
        self.stats.packets_processed += 1
        self._contain(hit.decl, err, reason)
        if self._emit_row != row:
            self._fallback(packets[row], ifaces[row])
        lifecycle = self.lifecycle
        if lifecycle is None or not lifecycle.quarantined:
            return True
        # The breaker tripped.  Packet-at-a-time execution classifies
        # each packet as it arrives, so the rows behind the trip would
        # have failed match(): give them that treatment, including the
        # node-level asp_handled count taken when they were enqueued.
        for packet, iface in zip(packets[row + 1:], ifaces[row + 1:]):
            self.node.stats.asp_handled -= 1
            self._fallback(packet, iface)
        return False

    def _contain(self, decl: ast.ChannelDecl, err: Exception,
                 reason: str) -> None:
        """Account a contained per-packet failure: count it, log it,
        and feed the node's circuit breaker (if one is attached)."""
        self.stats.runtime_errors += 1
        obs = self.node.obs
        if obs is not None:
            obs.events.emit("error", node=self.node.name,
                            where="asp", channel=decl.name,
                            reason=reason, detail=str(err))
        if self.lifecycle is not None:
            self.lifecycle.on_packet_error(reason)

    def _fallback(self, packet: Packet, iface: Interface | None) -> None:
        """Standard IP treatment for a packet the ASP did not take."""
        if self.node.up:
            self.node.standard_processing(packet, iface)
        else:
            self._drop_down(packet)

    def _drop_down(self, packet: Packet) -> None:
        self.node.stats.dropped_down += 1
        self.node._drop(packet, "node-down")

    # -- ExecutionContext implementation ---------------------------------------------

    def emit_remote(self, channel: str, packet_value: tuple) -> None:
        tag = None if channel == "network" else channel
        now = self.node.sim.now
        row = self._base + self._row
        run = self._run
        if run is None:
            orig, iface = self._packet, self._iface
        else:
            orig, iface = run[0][row], run[1][row]
        if orig is not None and _unchanged(packet_value, orig):
            # The packet in hand goes on as it came: what encode would
            # build, without building the payload again.  The original
            # transmission is already on the arrival wire.
            packet = Packet(orig.ip, orig.transport, orig.payload, tag,
                            next_uid(), None, now)
            exclude = iface
        else:
            packet = codec.encode(packet_value, channel=tag, created_at=now)
            exclude = _passthrough_exclusion(packet, orig, iface)
        self.stats.packets_emitted += 1
        self._emit_row = row
        self.node.ip_send(packet, exclude_iface=exclude, from_planp=True)

    def emit_neighbor(self, channel: str, packet_value: tuple,
                      neighbor: HostAddr) -> None:
        tag = None if channel == "network" else channel
        packet = codec.encode(packet_value, channel=tag,
                              created_at=self.node.sim.now)
        self.stats.packets_emitted += 1
        self._emit_row = self._base + self._row
        out = self.node.iface_toward(neighbor)
        if out is None:
            self.node._drop(packet, "no-route")
            return
        out.send(packet)

    def deliver(self, packet_value: tuple) -> None:
        packet = codec.encode(packet_value, created_at=self.node.sim.now)
        self.stats.packets_delivered += 1
        self._emit_row = self._base + self._row
        self.node.deliver_local(packet)

    def drop(self, packet_value: tuple) -> None:
        self.stats.packets_dropped += 1

    def this_host(self) -> HostAddr:
        return self.node.address

    def time_ms(self) -> int:
        return int(self.node.sim.now * 1000)

    def link_load(self, toward: HostAddr) -> int:
        return self.node.link_load_toward(toward)

    def link_bandwidth(self, toward: HostAddr) -> int:
        return self.node.link_bandwidth_toward(toward)

    def queue_len(self, toward: HostAddr) -> int:
        return self.node.queue_len_toward(toward)

    def random_int(self, bound: int) -> int:
        # Drawn from the node's private stream (not the shared sim.rng)
        # so one node's sequence doesn't depend on unrelated traffic.
        return self.node.entropy.randrange(bound) if bound > 0 else 0

    def output(self, text: str) -> None:
        self.console.append(text)


def _unchanged(value: tuple, orig: Packet) -> bool:
    """Is ``value`` the packet in hand, re-emitted with no component
    rewritten — its own headers and its payload object as the one blob
    view?  Then ``encode`` would rebuild exactly ``orig``'s headers and
    bytes.  (Layouts with other views never qualify: a ``bool`` view,
    for one, is normalised by encode.)"""
    transport = orig.transport
    if transport is None:
        return (len(value) == 2 and value[0] is orig.ip
                and value[1] is orig.payload and orig.ip.proto == PROTO_RAW
                and orig.payload.__class__ is bytes)
    return (len(value) == 3 and value[0] is orig.ip
            and value[1] is transport and value[2] is orig.payload
            and orig.payload.__class__ is bytes)


def _passthrough_exclusion(packet: Packet, orig: Packet | None,
                           iface: Interface | None) -> Interface | None:
    """An unchanged re-emission of the packet being processed (an
    observing ASP's ``OnRemote(network, p)``) must not be sent back out
    of the interface it arrived on — the original transmission is
    already on that wire.  Anything new or modified routes normally."""
    if orig is None:
        return None
    # Identity first: what the program did not rewrite is the very
    # object the decoder handed it, and header ``==`` is a Python call
    # per field tuple.
    ip, was, transport = packet.ip, orig.ip, packet.transport
    same = ((ip is was
             or ((ip.src is was.src or ip.src == was.src)
                 and (ip.dst is was.dst or ip.dst == was.dst)))
            and (transport is orig.transport or transport == orig.transport)
            and packet.payload == orig.payload)
    return iface if same else None
