"""The dispatch core: classify → decode → run → commit-or-contain.

One installed program's packet semantics, written once and free of any
node, simulator or observability dependency, so every host drives the
same code: :class:`~repro.runtime.planp_layer.PlanPLayer` on a node, the
differential fuzz oracle (:mod:`repro.fuzz.oracle`) and the wire-pair
oracle (:mod:`repro.fuzz.pairs`) off one.

* **Classification** — a table keyed by (channel tag, transport-header
  class), built once per install, lists the overloads declared for that
  class in declaration order; the first whose layout admits the payload
  length takes the packet, otherwise the packet is not the program's.
  An install builds only its :class:`Hit` objects: each packet type's
  :class:`~repro.runtime.codec.DispatchPlan` is built once and shared.
* **Grouping** — :func:`group_runs`: a burst splits into maximal runs of
  consecutive packets that hit the same overload, capped.
* **Execution** — a run of one is one :meth:`DispatchCore.run_one`
  call: the per-packet decoder, then ``engine.run_channel``, and a
  return value instead of callbacks.  :meth:`DispatchCore.run` takes a
  longer run: it decodes as one struct-of-arrays
  :class:`~repro.runtime.codec.PacketBatch` and folds through the
  engine's own batch fold (:attr:`DispatchCore.fold`), reporting rows
  through callbacks.  An engine without a fold runs such a run packet
  by packet through :meth:`DispatchCore.run_one`, so a host defers
  packets into runs only while :attr:`DispatchCore.fold` is set.
* **Commit or contain** — protocol and channel state change only when a
  row returns.  A row that fails is reported to the host and commits
  nothing; a decode failure is always the packet's fault and a
  :data:`CONTAINED` error the program's, and neither may take the node
  down.  Anything else an engine raises propagates, after the rows
  before it have committed.
"""

from __future__ import annotations

from ..interp.values import default_value
from ..jit.batching import BatchFault
from ..lang import types as T
from ..lang.errors import PlanPError
from . import codec

#: what a channel invocation may raise without it being an engine bug
CONTAINED = (PlanPError, codec.CodecError)


def group_runs(hits: list, limit: int):
    """The grouping rule: ``(start, end)`` index pairs splitting a
    burst's classification results into maximal runs of consecutive
    identical hits, at most ``limit`` long.  Hits are one stable object
    per overload, so "same overload" is identity."""
    n = len(hits)
    i = 0
    while i < n:
        hit = hits[i]
        end = min(i + limit, n)
        j = i + 1
        while j < end and hits[j] is hit:
            j += 1
        yield i, j
        i = j


class Hit:
    """One overload in one core's match table — what classification
    returns.  A hit is only ever compared by identity: two packets on
    the same overload of the same core share it."""

    __slots__ = ("stamp", "decl", "plan", "admits", "decode", "key")

    def __init__(self, stamp: object, decl, plan):
        #: the :attr:`DispatchCore.stamp` of the core whose table holds it
        self.stamp = stamp
        self.decl = decl
        self.plan = plan
        self.admits = plan.admits
        #: the per-packet decoder of the overload's layout
        self.decode = plan.decode
        #: the channel's key in ``channel_states``
        self.key = id(decl)


class DispatchCore:
    """The match table, the engine and the live state of one program.
    Without an engine a core classifies but cannot run."""

    def __init__(self, channels, engine=None, protocol_state=None,
                 channel_states: dict[int, object] | None = None):
        #: what tells this core's hits from another's (a reference to
        #: the core itself would make every replaced core garbage that
        #: only the cycle collector frees)
        self.stamp = object()
        #: (channel tag, transport class) -> the :class:`Hit` of every
        #: overload declared for it, in declaration order
        self.table: dict[tuple, list[Hit]] = {}
        #: ``Hit.key`` -> hit, for every overload that can match
        self.hits: dict[int, Hit] = {}
        for decl in channels:
            pkt_type = decl.packet_type
            plan = (codec.dispatch_plan(pkt_type)
                    if isinstance(pkt_type, T.TupleType) else None)
            if plan is None:  # malformed layout: never matches
                continue
            tag = None if decl.name == "network" else decl.name
            hit = Hit(self.stamp, decl, plan)
            self.table.setdefault((tag, plan.transport_cls), []).append(hit)
            self.hits[hit.key] = hit
        self.use_engine(engine)
        self.protocol_state = protocol_state
        #: id(decl) -> that channel's state
        self.channel_states = channel_states or {}

    @classmethod
    def fresh(cls, channels, engine, ctx) -> "DispatchCore":
        """A core holding the program's initial state."""
        return cls(channels, engine,
                   default_value(channels[0].protocol_state_type),
                   {id(decl): engine.initial_channel_state(decl, ctx)
                    for decl in channels})

    def use_engine(self, engine) -> None:
        """Run on ``engine`` (and its batch fold, if any) from now on."""
        self.engine = engine
        #: the engine's own batch fold (``run_channel_batch``), or None
        self.fold = getattr(engine, "run_channel_batch", None)

    def rebind(self, hit: Hit) -> Hit | None:
        """This core's hit for the overload a hit classified by another
        core (since replaced) named, or None if the program lacks it."""
        return self.hits.get(hit.key)

    @staticmethod
    def admitting(entries: list, packet) -> Hit | None:
        """The first of ``entries`` — one table row, so declaration
        order — whose layout admits the packet's payload, or None."""
        payload_len = len(packet.payload)
        for hit in entries:
            if hit.admits(payload_len):
                return hit
        return None

    def lookup(self, packet) -> Hit | None:
        """Classify one packet: the hit of the first declared overload
        that admits it, or None (standard IP takes the packet)."""
        entries = self.table.get(
            (packet.channel, packet.transport.__class__))
        return self.admitting(entries, packet) if entries else None

    def run_one(self, packet, hit: Hit, ctx) -> tuple | None:
        """Execute one packet and commit it if it returns: None, or
        ``(reason, err)`` when it committed nothing — reason
        ``"decode"`` (the wire bytes do not fit the layout) or
        ``"runtime"`` (a :data:`CONTAINED` error).  Anything else the
        engine raises propagates.  The engine sees the packet as row
        ``ctx._base + ctx._row``; the host keeps both at the row in
        hand (0 outside a batch)."""
        try:
            value = hit.decode(packet)
        except Exception as err:
            # Decoding is driven entirely by wire data, so whatever it
            # raises is the packet's fault, never the program's.
            return "decode", err
        states = self.channel_states
        key = hit.key
        try:
            ps, ss = self.engine.run_channel(
                hit.decl, self.protocol_state, states[key], value, ctx)
        except CONTAINED as err:
            return "runtime", err
        self.protocol_state = ps
        states[key] = ss
        return None

    def run(self, packets: list, hit: Hit, ctx, on_ok, on_fault) -> bool:
        """Execute a same-overload run of two or more and commit what
        succeeds.

        ``on_ok(n)`` reports ``n`` more rows committed, in order;
        ``on_fault(row, reason, err)`` reports that ``packets[row]``
        committed nothing, with :meth:`run_one`'s reasons, and returns
        whether to go on with the rows behind it; ``run`` returns False
        once it said no.  While an engine runs, ``ctx._base +
        ctx._row`` is the row in hand.

        The run follows the :class:`BatchFault` contract:
        rows before a faulted row commit, the faulted row is contained,
        and the rows behind it resume as a fresh batch, so no decoded
        column outlives a fault.  A batch that fails any other way has
        executed nothing (decoding is forced before row zero), so the
        rest of the run replays one packet at a time, which finds the
        malformed packet(s).  On an engine without a fold (swapped in
        after the run was queued) every row takes that replay.
        """
        fold = self.fold
        if fold is None:
            return self._one_by_one(packets, 0, hit, ctx, on_ok, on_fault)
        n = len(packets)
        decl, key = hit.decl, hit.key
        states = self.channel_states
        start = 0
        while start < n:
            ctx._base = start
            batch = hit.plan.batch_decoder().batch(
                packets[start:] if start else packets)
            try:
                ps, ss = fold(decl, self.protocol_state, states[key],
                              batch, ctx)
            except BatchFault as fault:
                self.protocol_state = fault.ps
                states[key] = fault.ss
                if fault.index:
                    on_ok(fault.index)
                row = start + fault.index
                start = row + 1
                if not _contain_or_raise(row, fault.err, on_fault):
                    return False
            except Exception:
                return self._one_by_one(packets, start, hit, ctx, on_ok,
                                        on_fault)
            else:
                self.protocol_state = ps
                states[key] = ss
                on_ok(n - start)
                break
        return True

    def _one_by_one(self, packets, start, hit, ctx, on_ok, on_fault) -> bool:
        for row in range(start, len(packets)):
            ctx._base = row
            ctx._row = 0
            fault = self.run_one(packets[row], hit, ctx)
            if fault is None:
                on_ok(1)
            elif not on_fault(row, *fault):
                return False
        return True


def _contain_or_raise(row: int, err: Exception, on_fault) -> bool:
    if isinstance(err, CONTAINED):
        return on_fault(row, "runtime", err)
    raise err
