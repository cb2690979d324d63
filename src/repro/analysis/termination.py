"""Termination analyses (paper §2.1).

**Local termination** holds by construction: PLAN-P has no loop construct
and the type checker rejects recursive or forward ``fun`` calls.  The
check here re-verifies the call restriction on the (possibly hand-built)
AST, so the verifier does not silently depend on front-end behaviour;
that the AST has no loop node at all is a test on ``repro.lang.ast``.

**Global termination**: a packet could still cycle *through the network*
if channels keep re-emitting it with rewritten destinations.  Under the
paper's assumption that IP routing is acyclic, forwarding a packet with
an *unchanged* destination always makes progress; only emissions that
rewrite the destination can create network cycles.  The analysis
performs the paper's exhaustive state exploration: abstract states are
(channel, abstract destination, abstract port); transitions come from the
path summaries of :mod:`repro.analysis.paths`; the program is rejected if
any reachable cycle contains a destination-rewriting emission.  The state
space is on the order of r·d·2^d as the paper reports (r = emission
sites, d = destinations known to the program).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..lang.errors import VerificationError
from ..lang.typechecker import ProgramInfo
from ..net.routing import bfs_parents
from .effects import EffectWalk
from .paths import (Dst, DstKind, Emission, Port, PortKind, ProgramPaths,
                    program_paths)


# ---------------------------------------------------------------------------
# Local termination
# ---------------------------------------------------------------------------


def check_local_termination(info: ProgramInfo) -> None:
    """Verify the structural restrictions that guarantee local
    termination: a DAG of function calls (one walk per function body)
    and no loop constructs."""
    effects = EffectWalk(info)
    order = {name: i for i, name in enumerate(info.funs)}
    for name in info.funs:
        for call in effects.of_fun(name).fun_calls:
            if call.func == name:
                raise VerificationError(
                    f"function {name!r} calls itself; recursion breaks "
                    f"local termination", call.pos, analysis="termination")
            if order[call.func] >= order[name]:
                raise VerificationError(
                    f"function {name!r} calls {call.func!r}, declared "
                    f"later; forward calls admit recursion", call.pos,
                    analysis="termination")
    # The AST has no loop construct to look for (``tests/analysis/
    # test_termination.py`` fails the day one is added without this
    # analysis being revisited), so channel bodies need no walk here.


# ---------------------------------------------------------------------------
# Global termination
# ---------------------------------------------------------------------------


class _State(NamedTuple):
    """(channel decl, resolved destination, resolved port); a tuple, so
    the search builds, hashes and compares it in C."""

    channel: str
    overload: int
    dst: Dst
    port: Port


#: Resolved destination meaning "the application's original destination".
DST_APP = Dst(DstKind.ORIG)
#: Resolved destination "the original sender".
DST_SRCLOC = Dst(DstKind.SRC)
PORT_APP = Port(PortKind.ORIG)


def _resolve_dst(emitted: Dst, current: Dst) -> Dst:
    if emitted.kind is DstKind.ORIG:
        return current
    if emitted.kind is DstKind.SRC:
        # "src of the packet being processed": only meaningful when that
        # packet is still the application's original.
        if current == DST_APP:
            return DST_SRCLOC
        return Dst(DstKind.TOP)
    return emitted  # THIS, LIT, TOP are absolute


def _resolve_port(emitted: Port, current: Port) -> Port:
    if emitted.kind is PortKind.ORIG:
        return current
    return emitted


def _is_rewrite(emission: Emission, current_dst: Dst,
                resolved: Dst) -> bool:
    """Does this emission send the packet somewhere other than where it
    was already going?  OnNeighbor always redirects (it bypasses
    routing); unknown destinations are conservatively rewrites."""
    if emission.neighbor_bound:
        return True
    if emission.dst.kind is DstKind.ORIG:
        return False
    if resolved.kind is DstKind.TOP or resolved.kind is DstKind.THIS:
        return True
    return resolved != current_dst


@dataclass
class GlobalTerminationReport:
    states_explored: int = 0
    edges: int = 0
    rewrite_edges: int = 0
    emission_sites: int = 0


def check_global_termination(
        info: ProgramInfo,
        paths: ProgramPaths | None = None) -> GlobalTerminationReport:
    """Explore the abstract state space and reject cycling programs.

    Raises :class:`VerificationError` if a reachable abstract cycle
    contains a destination-rewriting emission (a packet could then visit
    the same channel in the same abstract configuration indefinitely,
    i.e. cycle through the network); the edge named is the first such,
    in discovery order.  ``paths`` is ``program_paths(info)`` when the
    caller already has it."""
    paths_of = program_paths(info) if paths is None else paths
    emission_sites = sum(len(p.emissions) for summaries in paths_of.values()
                         for p in summaries)

    # state -> successor -> (rewrites the destination?, last emission
    # drawing the edge), both levels in discovery order
    edges: dict[_State, dict[_State, tuple[bool, Emission]]] = {}
    # Every channel can receive a fresh application packet.
    frontier = [_State(name, i, DST_APP, PORT_APP) for name, i in paths_of]
    seen: set[_State] = set(frontier)
    rewrite_edges = 0

    while frontier:
        state = frontier.pop()
        out = edges[state] = {}
        for path in paths_of[(state.channel, state.overload)]:
            if not path.constraint.admits(state.port, state.dst):
                continue
            for emission in path.emissions:
                resolved_dst = _resolve_dst(emission.dst, state.dst)
                resolved_port = _resolve_port(emission.port, state.port)
                rewrite = _is_rewrite(emission, state.dst, resolved_dst)
                for succ_i, succ_decl in enumerate(
                        info.channel_overloads(emission.target)):
                    succ = _State(emission.target, succ_i, resolved_dst,
                                  resolved_port)
                    if succ in out:
                        rewrite = rewrite or out[succ][0]
                    out[succ] = (rewrite, emission)
                    if rewrite:
                        rewrite_edges += 1
                    if succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)

    # what each rewrite target reaches, searched once per target
    reach: dict[_State, dict[_State, _State | None]] = {}
    for u, out in edges.items():
        for v, (rewrite, emission) in out.items():
            if not rewrite:
                continue
            if v not in reach:
                reach[v] = bfs_parents(edges, v)
            if u in reach[v]:
                raise VerificationError(
                    f"possible packet cycle: channel {u.channel!r} "
                    f"(state dst={u.dst}, port={u.port}) re-emits on "
                    f"channel {v.channel!r} with a rewritten destination "
                    f"{v.dst} (line {emission.line}); under acyclic IP "
                    f"routing only destination-preserving forwards are "
                    f"provably terminating", analysis="termination")

    return GlobalTerminationReport(
        states_explored=len(seen),
        edges=sum(len(out) for out in edges.values()),
        rewrite_edges=rewrite_edges,
        emission_sites=emission_sites)
