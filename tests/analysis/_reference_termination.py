# FROZEN TEST ORACLE -- not product code.
#
# ``check_global_termination`` exactly as it stood in
# src/repro/analysis/termination.py while the abstract state graph was a
# networkx ``DiGraph`` and the cycle check its strongly connected
# components (only the imports were made absolute; the state type and the
# resolve/rewrite helpers it shares with the product are imported, not
# copied).  tests/analysis/test_termination.py asserts that the product's
# verdicts and report counts equal the ones computed here.
# Do not "fix" or speed this up: its value is that it does not change.
from __future__ import annotations

import pytest

nx = pytest.importorskip("networkx")

from repro.analysis.paths import (Emission, ProgramPaths,  # noqa: E402
                                  program_paths)
from repro.analysis.termination import (DST_APP, PORT_APP,  # noqa: E402
                                        GlobalTerminationReport, _State,
                                        _is_rewrite, _resolve_dst,
                                        _resolve_port)
from repro.lang.errors import VerificationError  # noqa: E402
from repro.lang.typechecker import ProgramInfo  # noqa: E402


def check_global_termination(
        info: ProgramInfo,
        paths: ProgramPaths | None = None) -> GlobalTerminationReport:
    """Explore the abstract state space and reject cycling programs.

    Raises :class:`VerificationError` if a reachable abstract cycle
    contains a destination-rewriting emission (a packet could then visit
    the same channel in the same abstract configuration indefinitely,
    i.e. cycle through the network).  ``paths`` is ``program_paths(info)``
    when the caller already has it."""
    paths_of = program_paths(info) if paths is None else paths
    emission_sites = sum(len(p.emissions) for summaries in paths_of.values()
                         for p in summaries)

    graph = nx.DiGraph()
    # Every channel can receive a fresh application packet.
    frontier = [_State(name, i, DST_APP, PORT_APP) for name, i in paths_of]
    seen: set[_State] = set(frontier)
    rewrite_edges: list[tuple[_State, _State, Emission]] = []

    while frontier:
        state = frontier.pop()
        graph.add_node(state)
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
                    if graph.has_edge(state, succ):
                        rewrite = rewrite or \
                            graph.edges[state, succ]["rewrite"]
                    graph.add_edge(state, succ, rewrite=rewrite,
                                   emission=emission)
                    if rewrite:
                        rewrite_edges.append((state, succ, emission))
                    if succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)

    for component in nx.strongly_connected_components(graph):
        for u, v, data in graph.edges(component, data=True):
            in_cycle = (u in component and v in component
                        and (len(component) > 1 or graph.has_edge(u, u)))
            if in_cycle and data["rewrite"]:
                emission = data["emission"]
                raise VerificationError(
                    f"possible packet cycle: channel {u.channel!r} "
                    f"(state dst={u.dst}, port={u.port}) re-emits on "
                    f"channel {v.channel!r} with a rewritten destination "
                    f"{v.dst} (line {emission.line}); under acyclic IP "
                    f"routing only destination-preserving forwards are "
                    f"provably terminating", analysis="termination")

    return GlobalTerminationReport(
        states_explored=len(seen),
        edges=graph.number_of_edges(),
        rewrite_edges=len(rewrite_edges),
        emission_sites=emission_sites)
