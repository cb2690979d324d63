"""Mixed-generation wire-compatibility summaries (rolling upgrades).

During a staged rollout, canary nodes run generation N+1 while the rest
of the fleet still runs generation N; packets emitted under one
generation traverse nodes running the other.  The lifecycle manager's
health gate only notices the resulting decode errors *after* mixed
traffic has flowed — by which time the protocol's invariants may
already be broken at a subset of hops.

This module derives a static per-channel **wire summary** from a
checked :class:`~repro.lang.typechecker.ProgramInfo`:

* every channel's overload **shapes** — the byte-level layout dispatch
  actually keys on (transport-header class, payload view sequence,
  fixed size, tail-ness), read off :func:`repro.runtime.codec.layout`
  like ``dispatch_plan`` so the summary can never drift from the
  decoder; and
* the **emission topology** — which channels each channel (or a helper
  function it calls) sends to via ``OnRemote``/``OnNeighbor``, and
  whether it ``deliver``\\ s — the same syntactic walk the delivery
  analysis performs, made total (no path budgets, no raising).

:func:`check_compatible` compares two summaries and returns a verdict
on a three-point lattice::

    COMPATIBLE  <  DEGRADED  <  INCOMPATIBLE

with one structured :class:`Reason` per defect.  ``INCOMPATIBLE`` means
some wire packet can be misrouted or misread by a mixed-generation
fleet — any admission-set or layout asymmetry qualifies, in either
direction, because during a canary window both packet flows exist.
``DEGRADED`` is reserved for deltas no wire packet can ever witness
(a declared-but-never-emitted tagged channel appearing or vanishing) —
worth surfacing, not worth a veto.

Derivation is **total** over every type-checked program: a malformed
packet layout (which ``dispatch_plan`` maps to "never matches") is
recorded as an unmatchable shape, not raised.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

from ..lang import ast
from ..lang.typechecker import ProgramInfo
from ..runtime.codec import CodecError, layout
from ..lang import types as T

#: Bump when the summary derivation or comparison semantics change, so
#: cached summaries from an older revision are keyed out (the
#: ``CODEGEN_REV`` idiom of ``jit.pipeline``).
WIRE_REV = 1

_EMIT_FUNCS = ("OnRemote", "OnNeighbor")


# ---------------------------------------------------------------------------
# Summary derivation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverloadShape:
    """The dispatch-relevant byte layout of one channel overload.

    ``matchable=False`` marks a malformed packet type — the runtime's
    ``dispatch_plan`` returns ``None`` for it and the overload never
    admits a packet, so it cannot cause wire traffic by itself.
    """

    #: "tcp" | "udp" | "raw"
    transport: str
    #: payload view names in order, e.g. ("int", "int", "blob")
    views: tuple[str, ...]
    #: total bytes of the fixed-size views
    fixed: int
    #: does the final view consume the residue (blob/string)?
    has_tail: bool
    matchable: bool = True

    def admits(self, payload_len: int) -> bool:
        if not self.matchable:
            return False
        if self.has_tail:
            return payload_len >= self.fixed
        return payload_len == self.fixed

    def admission_overlaps(self, other: "OverloadShape") -> bool:
        """Is there a wire packet both shapes admit?"""
        if not (self.matchable and other.matchable):
            return False
        if self.transport != other.transport:
            return False
        if self.has_tail and other.has_tail:
            return True
        if self.has_tail:
            return other.fixed >= self.fixed
        if other.has_tail:
            return self.fixed >= other.fixed
        return self.fixed == other.fixed

    def describe(self) -> str:
        body = "*".join(self.views) if self.views else "<empty>"
        note = "" if self.matchable else " (malformed, never matches)"
        return f"{self.transport}:{body}{note}"


@dataclass(frozen=True)
class ChannelSummary:
    """One channel's contribution to the wire protocol."""

    name: str
    #: dispatch tag: ``None`` for the overloadable ``network`` channel
    #: (untagged wire traffic), the channel name otherwise
    tag: str | None
    shapes: tuple[OverloadShape, ...]
    #: channel names this channel's body (helper funs included) sends to
    emits: tuple[str, ...]
    delivers: bool


@dataclass(frozen=True)
class WireSummary:
    """The per-channel wire protocol of one program generation."""

    channels: tuple[ChannelSummary, ...]
    digest: str = ""

    def channel(self, name: str) -> ChannelSummary | None:
        for ch in self.channels:
            if ch.name == name:
                return ch
        return None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(ch.name for ch in self.channels)

    def emitted_to(self) -> set[str]:
        """Channel names some channel of this program sends to."""
        out: set[str] = set()
        for ch in self.channels:
            out.update(ch.emits)
        return out


def _shape_of(packet_type: T.TupleType) -> OverloadShape:
    try:
        lay = layout(packet_type)
    except CodecError:
        return OverloadShape(transport="raw", views=(), fixed=0,
                             has_tail=False, matchable=False)
    return OverloadShape(transport=lay.transport_name,
                         views=tuple(str(v) for v in lay.views),
                         fixed=lay.fixed, has_tail=lay.has_tail)


class _EmissionWalk:
    """Syntactic send/deliver topology with helper-fun inlining.

    Unlike ``analysis.paths.channel_paths`` this never raises: it is a
    plain transitive call walk (memoized per function), total over any
    type-checked program — which is what a summary consulted on the
    rollout path needs.
    """

    def __init__(self, info: ProgramInfo):
        self._info = info
        self._fun_cache: dict[str, tuple[set[str], bool]] = {}

    def of(self, expr: ast.Expr) -> tuple[set[str], bool]:
        targets: set[str] = set()
        delivers = False
        for call in ast.calls_in(expr):
            if call.func in _EMIT_FUNCS:
                if call.args and isinstance(call.args[0], ast.Var):
                    targets.add(call.args[0].name)
            elif call.func == "deliver":
                delivers = True
            elif call.func in self._info.funs:
                sub_targets, sub_delivers = self._of_fun(call.func)
                targets |= sub_targets
                delivers = delivers or sub_delivers
        return targets, delivers

    def _of_fun(self, name: str) -> tuple[set[str], bool]:
        cached = self._fun_cache.get(name)
        if cached is not None:
            return cached
        # Pre-seed to terminate on (ill-typed but conceivable) cycles.
        self._fun_cache[name] = (set(), False)
        result = self.of(self._info.funs[name].decl.body)
        self._fun_cache[name] = result
        return result


def wire_summary(info: ProgramInfo) -> WireSummary:
    """Derive the wire summary of a checked program.  Total: never
    raises for any program the type checker accepts."""
    walk = _EmissionWalk(info)
    channels: list[ChannelSummary] = []
    for name in sorted(info.channels):
        decls = info.channel_overloads(name)
        shapes = tuple(_shape_of(d.packet_type) for d in decls)
        targets: set[str] = set()
        delivers = False
        for d in decls:
            t, dv = walk.of(d.body)
            targets |= t
            delivers = delivers or dv
            if d.initstate is not None:
                t, dv = walk.of(d.initstate)
                targets |= t
                delivers = delivers or dv
        channels.append(ChannelSummary(
            name=name,
            tag=None if name == "network" else name,
            shapes=shapes,
            emits=tuple(sorted(targets)),
            delivers=delivers))
    summary = WireSummary(channels=tuple(channels))
    return WireSummary(channels=summary.channels,
                       digest=_digest(summary))


def _digest(summary: WireSummary) -> str:
    h = hashlib.sha256()
    for ch in summary.channels:
        h.update(repr((ch.name, ch.tag, ch.shapes, ch.emits,
                       ch.delivers)).encode("utf-8"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Compatibility verdicts
# ---------------------------------------------------------------------------


class Verdict(enum.IntEnum):
    """Three-point severity lattice; ``max`` of reasons wins."""

    COMPATIBLE = 0
    DEGRADED = 1
    INCOMPATIBLE = 2

    def __str__(self) -> str:
        return self.name.lower()


#: Reason kinds, in the vocabulary of the rollout operator.  An
#: overload *added* by the new generation surfaces as a narrowing in
#: the ``new->old`` direction — both directions always run, so the
#: vocabulary stays small.
CHANNEL_REMOVED = "channel-removed"
OVERLOAD_NARROWED = "overload-narrowed"
FIELD_LAYOUT_CHANGED = "field-layout-changed"
TAIL_CHANGED = "tail-changed"
EMISSION_TARGET_DROPPED = "emission-target-dropped"


@dataclass(frozen=True)
class Reason:
    """One structured defect found by :func:`check_compatible`."""

    kind: str
    severity: Verdict
    channel: str
    #: which generation's packets are at risk: "old->new" means packets
    #: produced/handled under ``old`` hit a ``new`` node that disagrees
    direction: str
    detail: str

    def describe(self) -> str:
        return (f"[{self.kind}] channel {self.channel!r} "
                f"({self.direction}): {self.detail}")


@dataclass
class CompatReport:
    """The verdict of comparing two generations' wire summaries."""

    verdict: Verdict = Verdict.COMPATIBLE
    reasons: list[Reason] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verdict is not Verdict.INCOMPATIBLE

    def describe(self) -> str:
        if not self.reasons:
            return "compatible"
        worst = [r for r in self.reasons if r.severity == self.verdict]
        extra = len(self.reasons) - len(worst)
        head = "; ".join(r.describe() for r in worst[:3])
        if len(worst) > 3:
            extra += len(worst) - 3
        tail = f" (+{extra} more)" if extra else ""
        return f"{self.verdict}: {head}{tail}"

    def to_dict(self) -> dict:
        return {
            "verdict": str(self.verdict),
            "reasons": [{
                "kind": r.kind,
                "severity": str(r.severity),
                "channel": r.channel,
                "direction": r.direction,
                "detail": r.detail,
            } for r in self.reasons],
        }


def _check_shapes(a: ChannelSummary, b: ChannelSummary, direction: str,
                  live: bool, reasons: list[Reason]) -> None:
    """Every packet an ``a``-shape admits must decode identically on
    ``b``; report narrowing/relayout per ``a`` overload.

    ``live`` says whether packets for this channel can actually exist
    on the wire (untagged traffic always can; tagged traffic only if
    some generation emits to the channel).  Dead-channel deltas cannot
    be witnessed by any packet, so they degrade instead of vetoing.
    """
    severity = Verdict.INCOMPATIBLE if live else Verdict.DEGRADED
    for sa in a.shapes:
        if not sa.matchable:
            continue
        overlapping = [sb for sb in b.shapes
                       if sa.admission_overlaps(sb)]
        if not overlapping:
            reasons.append(Reason(
                kind=OVERLOAD_NARROWED, severity=severity,
                channel=a.name, direction=direction,
                detail=f"overload {sa.describe()} has no admissible "
                       f"counterpart; its packets fall back to "
                       f"standard IP on the other generation"))
            continue
        for sb in overlapping:
            if sb.views == sa.views:
                continue
            if sb.views[:-1] == sa.views or sa.views[:-1] == sb.views:
                kind, what = TAIL_CHANGED, "tail-ness"
            elif (sa.has_tail != sb.has_tail
                  and sa.views[:len(sa.views) - sa.has_tail]
                  == sb.views[:len(sb.views) - sb.has_tail]):
                kind, what = TAIL_CHANGED, "tail-ness"
            else:
                kind, what = FIELD_LAYOUT_CHANGED, "field layout"
            reasons.append(Reason(
                kind=kind, severity=severity,
                channel=a.name, direction=direction,
                detail=f"{what} changed on overlapping admission: "
                       f"{sa.describe()} vs {sb.describe()}"))


def _check_direction(a: WireSummary, b: WireSummary,
                     direction: str, reasons: list[Reason]) -> None:
    """Can every wire packet generation ``a`` produces or claims be
    handled equivalently by generation ``b``?"""
    a_emits = a.emitted_to()
    live_tags = a_emits | b.emitted_to()
    for ch in a.channels:
        other = b.channel(ch.name)
        if other is None:
            if ch.name in a_emits:
                emitters = sorted(c.name for c in a.channels
                                  if ch.name in c.emits)
                reasons.append(Reason(
                    kind=EMISSION_TARGET_DROPPED,
                    severity=Verdict.INCOMPATIBLE,
                    channel=ch.name, direction=direction,
                    detail=f"still emitted to by "
                           f"{', '.join(emitters)} but absent from "
                           f"the other generation; tagged packets "
                           f"fall back to standard IP"))
            elif ch.tag is None:
                # Untagged coverage vanished wholesale.
                reasons.append(Reason(
                    kind=CHANNEL_REMOVED, severity=Verdict.INCOMPATIBLE,
                    channel=ch.name, direction=direction,
                    detail="network channel absent from the other "
                           "generation; untagged traffic it handles "
                           "falls back to standard IP"))
            else:
                reasons.append(Reason(
                    kind=CHANNEL_REMOVED, severity=Verdict.DEGRADED,
                    channel=ch.name, direction=direction,
                    detail="channel absent from the other generation "
                           "(no emitter on this side; dead on the "
                           "wire)"))
            continue
        live = ch.tag is None or ch.name in live_tags
        _check_shapes(ch, other, direction, live, reasons)


def check_compatible(old: WireSummary, new: WireSummary) -> CompatReport:
    """Can a mixed fleet of ``old``- and ``new``-generation nodes
    exchange wire packets without misrouting or misreading them?

    Checked in both directions (old packets across new nodes, and new
    packets across old nodes — during a canary window both flows
    exist).  The verdict is the worst reason's severity; an empty
    reason list means the summaries describe the same wire protocol.
    """
    report = CompatReport()
    if old.digest and old.digest == new.digest:
        return report
    _check_direction(old, new, "old->new", report.reasons)
    _check_direction(new, old, "new->old", report.reasons)
    # The reverse direction re-reports widenings the forward direction
    # saw as narrowings (and vice versa); drop the duplicates, keeping
    # the most severe phrasing of each (kind, channel) defect.
    seen: dict[tuple[str, str, str], Reason] = {}
    for r in report.reasons:
        k = (r.kind, r.channel, r.detail)
        prev = seen.get(k)
        if prev is None or r.severity > prev.severity:
            seen[k] = r
    report.reasons = sorted(
        seen.values(),
        key=lambda r: (-r.severity, r.channel, r.kind, r.direction))
    if report.reasons:
        report.verdict = max(r.severity for r in report.reasons)
    return report
