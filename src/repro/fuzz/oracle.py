"""Differential execution oracle.

One (program, stream) pair runs through every engine backend in serial
and batch modes — six traces — by driving the shipped
:class:`~repro.runtime.dispatch.DispatchCore` off-node: classification,
grouping, decode containment, the batch tier's prefix-commit / contain
/ resume loop and the per-packet replay are the code a router runs, not
a model of it.  The oracle only names what the core reports:

* a packet no overload admits is ``pass`` (standard IP would take it);
* a decode failure is ``decode`` (``decode-leak:<type>`` if the codec
  raised outside its own error taxonomy — the layer contains that too,
  but it should be loud);
* a contained runtime error is ``err:<exception name>`` and commits
  nothing;
* any *other* exception is an uncontained leak — the thing that would
  take a router down — and is recorded on the trace as ``crash``.

Serial mode caps every run at one packet, batch mode at ``batch_size``.
Two traces are equal iff their final protocol state, per-channel
states, per-packet outcome strings, emission streams, console output,
and crash status all agree.  The reference is the interpreter in
serial mode; every disagreement is a :class:`Divergence`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interp import RecordingContext
from ..interp.values import PlanPList, PlanPTable, default_value
from ..jit import make_engine
from ..lang.errors import PlanPError, PlanPRuntimeError
from ..net.addresses import HostAddr
from ..runtime import codec
from ..runtime.dispatch import DispatchCore, group_runs
from .streams import PacketSpec

DEFAULT_BACKENDS = ("interpreter", "closure", "source")
MODES = ("serial", "batch")
#: seeds every run's ``random_int`` stream, so engines see the same draws
CONTEXT_SEED = 7


def canon(value: object) -> object:
    """A hashable, comparable canonical form of a PLAN-P value.

    :class:`PlanPTable` compares by identity, so tables canonicalize to
    their (capacity, insertion-ordered items); an engine inserting in a
    different order than the interpreter is a real divergence.
    """
    if isinstance(value, PlanPTable):
        return ("table", value.capacity,
                tuple((canon(k), canon(v)) for k, v in value.items()))
    if isinstance(value, PlanPList):
        return ("list", tuple(canon(v) for v in value.items))
    if isinstance(value, tuple):
        return ("tuple",) + tuple(canon(v) for v in value)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, HostAddr):
        return ("host", value.value)
    return value  # int/str/bytes/headers/UNIT compare structurally


@dataclass(frozen=True)
class Trace:
    """Everything observable about one execution of a stream."""

    ps: object
    states: tuple
    outcomes: tuple
    emissions: tuple
    printed: tuple
    crash: str | None = None

    def diff(self, other: "Trace") -> str | None:
        """The first differing field, human-readably; None if equal."""
        for name in ("crash", "outcomes", "ps", "states", "emissions",
                     "printed"):
            a, b = getattr(self, name), getattr(other, name)
            if a != b:
                return (f"{name}: {_short(a)} != {_short(b)}")
        return None


def _short(value: object, limit: int = 160) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "…"


@dataclass(frozen=True)
class Divergence:
    """One engine/mode disagreeing with the reference trace — or an
    uncontained crash shared by every engine (``backend='*'``)."""

    backend: str
    mode: str
    detail: str


@dataclass
class CompareResult:
    reference: Trace
    divergences: list[Divergence]

    @property
    def ok(self) -> bool:
        return not self.divergences


def _err_name(err: Exception) -> str:
    if isinstance(err, PlanPRuntimeError):
        return err.exception_name
    return type(err).__name__


class _WireContext(RecordingContext):
    """Records an emission only once it has encoded, so a value that
    does not fit the wire fails inside the invocation — where the
    layer's ``emit_*``/``deliver`` raise it — not silently later."""

    def emit_remote(self, channel, packet_value):
        codec.encode(packet_value)
        super().emit_remote(channel, packet_value)

    def emit_neighbor(self, channel, packet_value, neighbor):
        codec.encode(packet_value)
        super().emit_neighbor(channel, packet_value, neighbor)

    def deliver(self, packet_value):
        codec.encode(packet_value)
        super().deliver(packet_value)


class _Runner:
    """One trace execution: a :class:`DispatchCore` plus the outcome
    strings and crash capture of what it reports."""

    def __init__(self, info, backend: str):
        self.ctx = _WireContext(seed=CONTEXT_SEED)
        self.crash: str | None = None
        self.outcomes: list[str] = []
        self.channels = info.all_channels()
        self.core: DispatchCore | None = None
        try:
            self.core = DispatchCore.fresh(
                self.channels,
                make_engine(info, backend, RecordingContext()), self.ctx)
        except PlanPError as err:
            self.outcomes.append(f"install:{_err_name(err)}")
        except Exception as err:  # install-time leak
            self.crash = f"install:{type(err).__name__}"

    def run(self, packets: list, limit: int) -> None:
        """Feed the stream as one burst, runs capped at ``limit``."""
        core = self.core
        hits = [core.lookup(packet) for packet in packets]
        for i, j in group_runs(hits, limit):
            if hits[i] is None:
                self.outcomes.extend(["pass"] * (j - i))
                continue
            try:
                core.run(packets[i:j], hits[i], self.ctx,
                         self._on_ok, self._on_fault)
            except Exception as err:
                self.crash = type(err).__name__
                self.outcomes.append(f"leak:{self.crash}")
                return

    def _on_ok(self, rows: int) -> None:
        self.outcomes.extend(["ok"] * rows)

    def _on_fault(self, row: int, reason: str, err: Exception) -> bool:
        if reason == "runtime":
            self.outcomes.append(f"err:{_err_name(err)}")
        elif isinstance(err, codec.CodecError):
            self.outcomes.append("decode")
        else:
            self.outcomes.append(f"decode-leak:{type(err).__name__}")
        return True

    def trace(self) -> Trace:
        emissions = tuple(
            (e.kind, e.channel, canon(e.packet_value),
             e.neighbor.value if e.neighbor is not None else None)
            for e in self.ctx.emissions)
        core = self.core
        if core is None:  # install failed: initial ps, no channel state
            ps = default_value(self.channels[0].protocol_state_type)
            states = ()
        else:
            ps = core.protocol_state
            states = tuple(canon(core.channel_states[id(d)])
                           for d in self.channels)
        return Trace(ps=canon(ps), states=states,
                     outcomes=tuple(self.outcomes), emissions=emissions,
                     printed=tuple(self.ctx.printed), crash=self.crash)


def run_trace(info, backend: str, mode: str, specs: list[PacketSpec],
              *, batch_size: int = 4) -> Trace:
    """Execute one stream on one backend in one mode."""
    runner = _Runner(info, backend)
    if runner.core is not None:
        runner.run([s.to_packet() for s in specs],
                   batch_size if mode == "batch" else 1)
    return runner.trace()


def compare_all(info, specs: list[PacketSpec], *,
                backends=DEFAULT_BACKENDS,
                batch_size: int = 4) -> CompareResult:
    """Run the full engine×mode matrix and collect divergences.

    An uncontained crash is reported even when every engine agrees on
    it (``backend='*'``): unanimity does not make a containment leak
    acceptable.
    """
    reference = run_trace(info, backends[0], "serial", specs,
                          batch_size=batch_size)
    divergences: list[Divergence] = []
    for backend in backends:
        for mode in MODES:
            if backend == backends[0] and mode == "serial":
                continue
            trace = run_trace(info, backend, mode, specs,
                              batch_size=batch_size)
            detail = reference.diff(trace)
            if detail is not None:
                divergences.append(Divergence(backend, mode, detail))
    if reference.crash and not divergences:
        divergences.append(Divergence(
            "*", "*", f"uncontained crash: {reference.crash}"))
    return CompareResult(reference=reference, divergences=divergences)
