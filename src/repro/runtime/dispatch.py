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
* **Grouping** — :func:`group_runs`: a burst splits into maximal runs of
  consecutive packets that hit the same overload, capped.
* **Execution** — :meth:`DispatchCore.run` takes one run.  A run of one
  uses the prebuilt per-packet decoder and ``engine.run_channel``; any
  longer run decodes as one struct-of-arrays
  :class:`~repro.runtime.codec.PacketBatch` and folds through the
  engine's own batch fold or, when it brings none, the generic
  ``run_rows``.  The choice is made from the run length alone.
* **Commit or contain** — protocol and channel state change only when a
  row returns.  A row that fails is reported to the host and commits
  nothing; a decode failure is always the packet's fault and a
  :data:`CONTAINED` error the program's, and neither may take the node
  down.  Anything else an engine raises propagates, after the rows
  before it have committed.
"""

from __future__ import annotations

from ..interp.values import default_value
from ..jit.batching import BatchFault, batch_runner
from ..lang import types as T
from ..lang.errors import PlanPError
from . import codec

#: what a channel invocation may raise without it being an engine bug
CONTAINED = (PlanPError, codec.CodecError)


def group_runs(hits: list, limit: int):
    """The grouping rule: ``(start, end)`` index pairs splitting a
    burst's classification results into maximal runs of consecutive
    identical hits, at most ``limit`` long.  Hits are one stable tuple
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


class DispatchCore:
    """The match table, the engine and the live state of one program.
    Without an engine a core classifies but cannot :meth:`run`."""

    def __init__(self, channels, engine=None, protocol_state=None,
                 channel_states: dict[int, object] | None = None):
        #: (channel tag, transport class) -> [(decl, decode, plan)] in
        #: declaration order; the tuples are the hits ``lookup`` returns
        self.table: dict[tuple, list[tuple]] = {}
        for decl in channels:
            pkt_type = decl.packet_type
            plan = (codec.dispatch_plan(pkt_type)
                    if isinstance(pkt_type, T.TupleType) else None)
            if plan is None:  # malformed layout: never matches
                continue
            tag = None if decl.name == "network" else decl.name
            self.table.setdefault((tag, plan.transport_cls), []).append(
                (decl, plan.decode, plan))
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
        self.engine = engine
        self._run_batch = engine and batch_runner(engine)

    def candidates(self, packet) -> list:
        """The overloads declared for this packet's tag and transport
        class (empty when the program has none)."""
        return self.table.get(
            (packet.channel, packet.transport.__class__), ())

    @staticmethod
    def admitting(entries: list, packet) -> tuple | None:
        """The first of ``entries`` — :meth:`candidates`, so declaration
        order — whose layout admits the packet's payload, or None."""
        payload_len = len(packet.payload)
        for hit in entries:
            if hit[2].admits(payload_len):
                return hit
        return None

    def lookup(self, packet) -> tuple | None:
        """Classify one packet: the hit of the first declared overload
        that admits it, or None (standard IP takes the packet)."""
        entries = self.table.get(
            (packet.channel, packet.transport.__class__))
        return self.admitting(entries, packet) if entries else None

    def run(self, packets: list, hit: tuple, ctx, on_ok, on_fault,
            base: int = 0) -> bool:
        """Execute one same-overload run and commit what succeeds.

        ``on_ok(n)`` reports ``n`` more rows committed, in order;
        ``on_fault(row, reason, err)`` reports that ``packets[row]``
        committed nothing — reason ``"decode"`` (the wire bytes do not
        fit the layout) or ``"runtime"`` (a :data:`CONTAINED` error) —
        and returns whether to go on with the rows behind it; ``run``
        returns False once it said no.  While an engine runs,
        ``ctx._base + ctx._row`` is the row in hand.  Rows are numbered
        from ``base``, which is 0 for a host's call.

        The batch tier follows the :class:`BatchFault` contract: rows
        before a faulted row commit, the faulted row is contained, and
        the rows behind it resume as a fresh batch, so no decoded column
        outlives a fault.  A batch that fails any other way has executed
        nothing (decoding is forced before row zero), so the rest of the
        run replays as runs of one, which finds the malformed packet(s).
        """
        decl, decode, plan = hit
        key = id(decl)
        states = self.channel_states
        n = len(packets)
        if n == 1:
            try:
                value = decode(packets[0])
            except Exception as err:
                # Decoding is driven entirely by wire data, so whatever
                # it raises is the packet's fault, never the program's.
                return on_fault(base, "decode", err)
            ctx._base = base
            ctx._row = 0
            try:
                ps, ss = self.engine.run_channel(
                    decl, self.protocol_state, states[key], value, ctx)
            except Exception as err:
                return _contain_or_raise(base, err, on_fault)
            self.protocol_state = ps
            states[key] = ss
            on_ok(1)
            return True
        start = 0
        while start < n:
            ctx._base = base + start
            batch = plan.batch_decoder().batch(
                packets[start:] if start else packets)
            try:
                ps, ss = self._run_batch(decl, self.protocol_state,
                                         states[key], batch, ctx)
            except BatchFault as fault:
                self.protocol_state = fault.ps
                states[key] = fault.ss
                if fault.index:
                    on_ok(fault.index)
                row = start + fault.index
                start = row + 1
                if not _contain_or_raise(base + row, fault.err, on_fault):
                    return False
            except Exception:
                return all(self.run(packets[row:row + 1], hit, ctx, on_ok,
                                    on_fault, base + row)
                           for row in range(start, n))
            else:
                self.protocol_state = ps
                states[key] = ss
                on_ok(n - start)
                break
        return True


def _contain_or_raise(row: int, err: Exception, on_fault) -> bool:
    if isinstance(err, CONTAINED):
        return on_fault(row, "runtime", err)
    raise err
