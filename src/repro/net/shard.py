"""Conservative sharded execution of one topology.

The topology is partitioned into **segments**, each owning its own
:class:`~repro.net.sim.Simulator`, and the segments advance through
synchronized **windows** bounded by a lower-bound-timestamp horizon —
classic conservative parallel DES with cross-segment link latency as
the lookahead (DESIGN.md §13).  One process drives every segment: the
point is to check the scheduling contract of :mod:`repro.net.sim`
(execution split across heaps ≡ serial, byte for byte), not speed.

The window protocol
-------------------

Let ``T_min`` be the earliest pending event across all segments (and
the controller), and ``L`` the minimum propagation latency over all
*cut* links (links whose two ends live in different segments; the
partition validator rejects cuts with zero latency, and shared
:class:`~repro.net.link.Segment` media may not be cut at all).  Every
event executed in the window ``[T_min, H)`` with ``H = T_min + L`` has
time ``>= T_min``, so any packet it pushes across a cut arrives at
``time + L_link >= T_min + L = H`` — never inside the current window.
Segments can therefore execute the window's events independently, in
any order, and exchange the boundary crossings at the barrier.

Byte-identical to serial
------------------------

Correct *windowed* simulation is the easy half; this runner also
reproduces the serial engine's execution **exactly** (the bar PR 4 set
for the parallel harness and PR 6 for batching).  That is what the
formalized scheduling contract in :mod:`repro.net.sim` buys: events are
totally ordered by ``(time, lp, lseq)`` keys that are a pure function
of (topology, seed), so a boundary crossing carries the key its sending
transmit-queue drew — computed on the sender's side of the cut exactly
as a single-queue run would have — and :meth:`Simulator.post` lands it
in the remote heap in precisely the position serial execution would
have popped it from.  The controller simulator (``net.sim``) interleaves
at full key precision: segments hold at each controller event's key,
the event runs, and the window resumes — so fault timelines observe and
mutate exactly the state they would have seen serially.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .link import Link, Segment
from .node import Node
from .packet import Packet
from .sim import BEFORE_ANY_LP, EventKey, RunawayError, Simulator

if TYPE_CHECKING:
    from .node import Interface
    from .topology import Network


class ShardError(RuntimeError):
    """The requested partition cannot run conservatively."""


@dataclass(frozen=True)
class BoundaryMessage:
    """One packet crossing a cut link — the typed boundary protocol.

    Carries everything the receiving segment needs to replay the
    delivery exactly as serial execution would have: the cut link and
    sending interface identify the delivery path; ``arrival`` is the
    absolute delivery time (send time + link latency); ``(lp, lseq)``
    is the event key the sender's transmit-queue context drew for the
    delivery.
    """

    link: Link
    sender: "Interface"
    dst_segment: int
    arrival: float
    lp: int
    lseq: int
    packet: Packet


@dataclass
class ShardPlan:
    """A validated partition of one topology."""

    segments: int
    #: node name → segment index, in construction order
    assignment: dict[str, int]
    #: the conservative lookahead: min propagation latency over cut
    #: links (``inf`` when nothing is cut — segments are independent)
    lookahead: float
    #: names of the cut links
    cross_links: list[str] = field(default_factory=list)

    def segment_of(self, node: Node) -> int:
        return self.assignment[node.name]


def default_shard_of(nodes: list[Node], segments: int) -> dict[str, int]:
    """Contiguous blocks in construction order — the default partition."""
    n = len(nodes)
    return {node.name: min(i * segments // n, segments - 1)
            for i, node in enumerate(nodes)}


def build_plan(net: "Network", segments: int,
               shard_of: Callable[[Node], int] | None = None) -> ShardPlan:
    """Partition ``net`` and validate that it can run conservatively.

    Rules (DESIGN §13): a shared :class:`Segment` medium is one
    collision domain and must live entirely inside one shard; only
    point-to-point :class:`Link` media may be cut, and every cut link
    must have strictly positive latency (it *is* the lookahead).
    """
    if segments < 1:
        raise ShardError(f"segments must be >= 1, got {segments}")
    if not net.nodes:
        raise ShardError("cannot shard an empty topology")
    if segments > len(net.nodes):
        raise ShardError(f"{segments} segments for {len(net.nodes)} "
                         f"node(s) — at least one segment would be "
                         f"empty")
    if shard_of is None:
        assignment = default_shard_of(net.nodes, segments)
    else:
        assignment = {}
        for node in net.nodes:
            seg = shard_of(node)
            if not 0 <= seg < segments:
                raise ShardError(
                    f"shard_of({node.name!r}) = {seg} out of range "
                    f"[0, {segments})")
            assignment[node.name] = seg

    cross: list[str] = []
    lookahead = float("inf")
    for medium in net.media:
        segs = {assignment[iface.node.name]
                for iface in medium.interfaces}
        if len(segs) <= 1:
            continue
        if isinstance(medium, Segment):
            raise ShardError(
                f"shared segment {medium.name!r} spans shards {sorted(segs)}"
                f" — a collision domain cannot be cut; keep its stations "
                f"in one shard")
        latency = medium.latency
        if latency <= 0.0:
            raise ShardError(
                f"cut link {medium.name!r} has zero latency — a cut link's"
                f" latency is the conservative lookahead and must be > 0")
        cross.append(medium.name)
        lookahead = min(lookahead, latency)
    return ShardPlan(segments=segments, assignment=assignment,
                     lookahead=lookahead, cross_links=cross)


class ShardRunner:
    """Drives one partitioned network through the window protocol,
    round-robining the segment simulators in one process.

    This is an executable check of the scheduling contract, not a speed
    feature: it is what guarantees — and lets tests verify — that
    execution split across heaps is byte-identical to serial (DESIGN
    §13 records why the process-per-segment driver was rejected).
    """

    def __init__(self, net: "Network", plan: ShardPlan):
        self.net = net
        self.plan = plan
        k = plan.segments
        self.sims: list[Simulator] = [
            Simulator(seed=net.seed, lp_alloc=net._alloc_lp,
                      root=net.sim.root)
            for _ in range(k)]
        #: boundary messages awaiting the barrier
        self._outbox: list[BoundaryMessage] = []
        self.windows = 0
        self.horizon_stalls = [0] * k
        self.boundary_in = [0] * k
        self.boundary_out = [0] * k
        self._segment_nodes = [0] * k
        for segment in plan.assignment.values():
            self._segment_nodes[segment] += 1
        #: emit a ``shard-boundary`` obs event per crossing (off by
        #: default: tracing every crossing is too hot for benches)
        self.trace_boundary = False
        self._rewire()
        base = f"{net._sim_metric_name}.{net.name}"
        for i in range(k):
            net.obs.metrics.register(
                f"{base}.{i}", functools.partial(self._segment_stats, i))

    # -- construction ------------------------------------------------------------

    def _rewire(self) -> None:
        """Move every node and transmit queue onto its segment's
        simulator, and intercept cut-link deliveries into the boundary
        protocol."""
        plan, sims = self.plan, self.sims
        for node in self.net.nodes:
            node.sim = sims[plan.segment_of(node)]
        for medium in self.net.media:
            if isinstance(medium, Segment):
                ifaces = medium.interfaces
                if ifaces:
                    seg = plan.segment_of(ifaces[0].node)
                    medium._sim = sims[seg]
                    medium._tx._sim = sims[seg]
                continue
            for iface in medium.interfaces:
                txq = medium.tx_queue(iface)
                src = plan.segment_of(iface.node)
                txq._sim = sims[src]
                try:
                    other = medium.other_end(iface)
                except RuntimeError:
                    continue
                dst = plan.segment_of(other.node)
                if dst != src:
                    txq.boundary_emit = self._make_emit(medium, src, dst)

    def _make_emit(self, medium: Link, src: int, dst: int):
        def emit(packet: Packet, sender: "Interface", arrival: float,
                 lp: int, lseq: int) -> None:
            self._outbox.append(BoundaryMessage(
                link=medium, sender=sender, dst_segment=dst,
                arrival=arrival, lp=lp, lseq=lseq, packet=packet))
            self.boundary_out[src] += 1
            if self.trace_boundary:
                self.net.obs.events.emit(
                    "shard-boundary", link=medium.name,
                    src_segment=src, dst_segment=dst,
                    uid=packet.uid, arrival=round(arrival, 9))

        return emit

    # -- the barrier -------------------------------------------------------------

    def _flush_outbox(self) -> None:
        """Deliver buffered boundary messages into their destination
        segments' queues, under the sender-drawn event keys."""
        if not self._outbox:
            return
        msgs = self._outbox
        self._outbox = []
        msgs.sort(key=lambda m: (m.arrival, m.lp, m.lseq))
        for msg in msgs:
            self.sims[msg.dst_segment].post(
                msg.arrival,
                functools.partial(msg.link.deliver, msg.packet,
                                  msg.sender),
                lp=msg.lp, lseq=msg.lseq)
            self.boundary_in[msg.dst_segment] += 1

    def _next_time(self) -> float | None:
        times = [t for t in
                 ([self.net.sim.next_event_time()]
                  + [s.next_event_time() for s in self.sims])
                 if t is not None]
        return min(times) if times else None

    def _run_window(self, until: float | None,
                    until_key: EventKey | None, budget: float) -> float:
        """Execute one conservative window, interleaving the controller
        at full key precision: the segments hold at each controller
        event's key, the controller event runs, repeat; then everything
        drains to the window bound.  ``budget`` is what the ``run()``
        call has left of its ``max_events``: every simulator runs
        against the remainder (so a zero-delay storm inside one window
        still stops), and what is left afterwards is returned."""
        net, ctrl, sims = self.net, self.net.sim, self.sims
        before = [s.events_processed for s in sims]
        while True:
            ck = ctrl.next_event_key()
            if (ck is None
                    or (until_key is not None and ck >= until_key)
                    or (until is not None and ck[0] > until)):
                break
            for s in sims:
                net._active_sim = s
                budget -= s.run(until_key=ck, max_events=budget)
            if budget <= 0:
                raise RunawayError(budget)
            net._active_sim = ctrl
            ctrl.step()
            budget -= 1
        for s in (*sims, ctrl):
            net._active_sim = s
            budget -= s.run(until=until, until_key=until_key,
                            max_events=budget)
        for i, s in enumerate(sims):
            if s.events_processed == before[i]:
                self.horizon_stalls[i] += 1
        self.windows += 1
        return budget

    def run(self, until: float | None = None, *,
            max_events: int | None = None) -> None:
        """The :meth:`Simulator.run` contract, executed shard-wise:
        ``max_events`` bounds the whole call — controller and segments
        together — so the guard fires in exactly the runs it fires in
        serially."""
        budget = math.inf if max_events is None else max_events
        try:
            while True:
                self._flush_outbox()
                t_min = self._next_time()
                if t_min is None or (until is not None
                                     and t_min > until):
                    break
                horizon = t_min + self.plan.lookahead
                if until is not None and horizon > until:
                    # Tail window: everything left is within the
                    # horizon, so run straight to `until` (inclusive,
                    # matching the serial contract).  Crossings emitted
                    # here arrive at >= horizon > until; they are still
                    # enqueued (below) so pending-event counts match
                    # serial exactly.
                    budget = self._run_window(until, None, budget)
                else:
                    budget = self._run_window(
                        None, (horizon, BEFORE_ANY_LP, 0), budget)
        except RunawayError:
            # raised against a remainder; report the caller's limit
            raise RunawayError(max_events) from None
        self._flush_outbox()
        if until is not None:
            for s in [self.net.sim] + self.sims:
                if s.now < until:
                    s.advance_to(until)
        self.net._active_sim = self.net.sim

    # -- observability ------------------------------------------------------------

    def _segment_stats(self, i: int) -> dict[str, float]:
        d = self.sims[i].stats()
        d["horizon_stalls"] = self.horizon_stalls[i]
        d["boundary_in"] = self.boundary_in[i]
        d["boundary_out"] = self.boundary_out[i]
        d["windows"] = self.windows
        d["nodes"] = self._segment_nodes[i]
        d["lookahead"] = self.plan.lookahead
        d["cross_links"] = len(self.plan.cross_links)
        return d

    def merged_sim_stats(self) -> dict[str, float]:
        """The canonical ``sim`` scope when sharded: one merged view
        whose deterministic fields (``now``, ``events_processed``,
        ``pending_events``) are byte-identical to what a serial run
        reports — every serial event runs exactly once on exactly one
        of these simulators."""
        sims = [self.net.sim] + self.sims
        return {"now": max(s.now for s in sims),
                "events_processed": sum(s.events_processed
                                        for s in sims),
                "pending_events": sum(s.pending_events for s in sims),
                "cancelled_pending": sum(s._cancelled for s in sims),
                "heap_size": sum(len(s._queue) for s in sims)}


def shard_summary(metrics: dict) -> dict:
    """Fold a metrics snapshot into the ``obsdump --view shards`` view:
    windows, lookahead, cut-link count, and per-segment node and event
    counts, horizon stalls and boundary crossings — read back from the
    per-segment ``sim.<net>.<segment>.*`` scopes, which exist only
    when the run was sharded."""
    keep = ("nodes", "events_processed", "pending_events",
            "horizon_stalls", "boundary_in", "boundary_out")
    plan_wide = ("windows", "lookahead", "cross_links")
    segments: dict[int, dict] = {}
    for key, value in metrics.items():
        parts = key.split(".")
        if (len(parts) == 4 and parts[0].startswith("sim")
                and parts[2].isdigit()):
            segments.setdefault(int(parts[2]), {})[parts[3]] = value
    if not segments:
        return {"windows": 0, "segments": [],
                "note": "serial run (shard_segments=1)"}
    return {
        **{key: segments[0][key] for key in plan_wide},
        "segments": [{"segment": i,
                      **{key: segments[i][key] for key in keep}}
                     for i in sorted(segments)],
    }
