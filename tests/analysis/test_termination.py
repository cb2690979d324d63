"""Termination analyses tests (local and global)."""

import re

import pytest

from repro.analysis import (check_global_termination,
                            check_local_termination)
from repro.lang import VerificationError, parse, typecheck
from repro.lang import ast
from tests.corpora import SHIPPED, corpus_programs, grammar_programs


def check(source: str):
    return typecheck(parse(source))


FORWARD = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
           "(OnRemote(network, p); (ps, ss))")


class TestLocalTermination:
    def test_straightline_program_passes(self):
        check_local_termination(check(FORWARD))

    def test_fun_chain_passes(self):
        src = ("fun a(x : int) : int = x + 1\n"
               "fun b(x : int) : int = a(a(x))\n" + FORWARD)
        check_local_termination(check(src))

    def test_hand_built_recursion_rejected(self):
        # The type checker already prevents this; the analysis re-checks
        # on a hand-constructed AST (defence in depth).
        info = check("fun f(x : int) : int = x + 1\n" + FORWARD)
        fun = info.funs["f"]
        fun.decl.body = ast.Call(func="f", args=[ast.Var(name="x")])
        with pytest.raises(VerificationError, match="recursion"):
            check_local_termination(info)

    def test_hand_built_forward_call_rejected(self):
        src = ("fun a(x : int) : int = x\n"
               "fun b(x : int) : int = x\n" + FORWARD)
        info = check(src)
        info.funs["a"].decl.body = ast.Call(func="b",
                                            args=[ast.Var(name="x")])
        with pytest.raises(VerificationError, match="forward"):
            check_local_termination(info)


#: Every program below that global termination must refuse.
CYCLING = {
    "ping_pong":
        "channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
        "(OnRemote(network, (ipSwap(#1 p), udpSwap(#2 p), #3 p)); "
        "(ps, ss))",
    "rewrite_to_this_host":
        "channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
        "(OnRemote(network, "
        "(ipDestSet(#1 p, thisHost()), #2 p, #3 p)); (ps, ss))",
    # a -> b and b -> a via literal rewrites on the same guard.
    "two_literal_ping_pong": """
val a : host = 10.0.0.1
val b : host = 10.0.0.2
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  if udpDst(#2 p) = 9 then
    (if ipDst(#1 p) = a then
       OnRemote(network, (ipDestSet(#1 p, b), #2 p, #3 p))
     else
       OnRemote(network, (ipDestSet(#1 p, a), #2 p, #3 p));
     (ps, ss))
  else
    (OnRemote(network, p); (ps, ss))
""",
    "onneighbor_loop":
        "channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
        "(OnNeighbor(network, p, 10.0.0.2); (ps, ss))",
    # The MPEG-monitor shape, but the reply targets the guarded port: a
    # monitor answering another monitor forever.
    "reply_to_same_port": """
channel network(ps : int, ss : unit, p : ip*udp*string) is
  if udpDst(#2 p) = 9700 then
    (OnRemote(network,
              (ipMk(thisHost(), ipSrc(#1 p)), udpMk(9700, 9700), "re"));
     (ps, ss))
  else
    (OnRemote(network, p); (ps, ss))
""",
    # Two independent cycles, one per channel.
    "two_cycles": """\
channel relay(ps : unit, ss : unit, p : ip*udp*blob) is
  (OnNeighbor(relay, p, 10.0.0.2);
   (ps, ss))
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, (ipDestSet(#1 p, thisHost()), #2 p, #3 p));
   OnRemote(relay, p);
   (ps, ss))
""",
}


class TestGlobalTermination:
    def test_pure_forwarding_passes(self):
        report = check_global_termination(check(FORWARD))
        assert report.states_explored >= 1
        assert report.rewrite_edges == 0

    def test_ping_pong_rejected(self):
        with pytest.raises(VerificationError, match="cycle"):
            check_global_termination(check(CYCLING["ping_pong"]))

    def test_unconditional_rewrite_to_this_host_rejected(self):
        with pytest.raises(VerificationError, match="cycle"):
            check_global_termination(
                check(CYCLING["rewrite_to_this_host"]))

    def test_rewrite_guarded_by_port_passes(self):
        # Rewrites to a literal and changes the destination port so the
        # rewritten packet can never match the guard again.
        src = ("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
               "if udpDst(#2 p) = 53 then "
               "(OnRemote(network, (ipDestSet(#1 p, 10.0.0.9), "
               "udpDstSet(#2 p, 5353), #3 p)); (ps, ss)) "
               "else (OnRemote(network, p); (ps, ss))")
        check_global_termination(check(src))

    def test_unguarded_literal_rewrite_converges(self):
        # Rewriting everything to one literal destination: the rewritten
        # state rewrites to the *same* literal, so no growing cycle.
        src = ("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
               "(OnRemote(network, (ipDestSet(#1 p, 10.0.0.9), #2 p, "
               "#3 p)); (ps, ss))")
        check_global_termination(check(src))

    def test_dst_guard_makes_gateway_pass(self):
        src = """
val virtual : host = 10.0.0.1
val server : host = 10.0.0.2
channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  if tcpDst(#2 p) = 80 andalso ipDst(#1 p) = virtual then
    (OnRemote(network, (ipDestSet(#1 p, server), #2 p, #3 p));
     (ps + 1, ss))
  else
    (OnRemote(network, p); (ps, ss))
"""
        report = check_global_termination(check(src))
        assert report.rewrite_edges >= 1  # rewrites exist, but acyclic

    def test_two_literal_ping_pong_rejected(self):
        with pytest.raises(VerificationError, match="cycle"):
            check_global_termination(
                check(CYCLING["two_literal_ping_pong"]))

    def test_onneighbor_loop_rejected(self):
        with pytest.raises(VerificationError, match="cycle"):
            check_global_termination(check(CYCLING["onneighbor_loop"]))

    def test_reply_to_fixed_port_passes(self):
        # The MPEG-monitor pattern: reply toward the source on a port
        # that can never re-match the guard.
        src = """
channel network(ps : int, ss : unit, p : ip*udp*string) is
  if udpDst(#2 p) = 9700 then
    (OnRemote(network,
              (ipMk(thisHost(), ipSrc(#1 p)), udpMk(9700, 9800), "re"));
     (ps, ss))
  else
    (OnRemote(network, p); (ps, ss))
"""
        check_global_termination(check(src))

    def test_reply_to_same_port_rejected(self):
        with pytest.raises(VerificationError, match="cycle"):
            check_global_termination(check(CYCLING["reply_to_same_port"]))

    def test_first_rewriting_edge_on_a_cycle_is_the_one_named(self):
        """Both channels cycle.  Exploration starts from the channel
        declared last, so ``network``'s self-rewrite (line 5) is the
        first rewriting edge discovered whose head reaches its tail."""
        with pytest.raises(VerificationError) as err:
            check_global_termination(check(CYCLING["two_cycles"]))
        assert err.value.message.startswith(
            "possible packet cycle: channel 'network' (state dst=this, "
            "port=orig) re-emits on channel 'network' with a rewritten "
            "destination this (line 5);")

    def test_state_space_metrics_reported(self):
        report = check_global_termination(check(FORWARD))
        assert report.emission_sites == 1
        assert report.edges >= 1


# -- against the networkx graph it replaced ---------------------------------------

_NAMED_EDGE = re.compile(
    r"channel '(\w+)' \(state dst=(.*), port=(.*)\) re-emits on channel "
    r"'(\w+)' with a rewritten destination (.*) \(line (\d+)\)")


def _outcome(analysis, info):
    try:
        return analysis(info)
    except VerificationError as err:
        return err.message


def test_verdicts_counts_and_messages_equal_the_networkx_check(monkeypatch):
    """Over every real program the repository has: the same verdict, the
    same ``GlobalTerminationReport`` and — where exactly one rewriting
    edge lies on a cycle — the same message as the frozen networkx
    version.  A program that cycles several ways names one of those
    edges (which one is pinned above, not by networkx's component
    order)."""
    pytest.importorskip("networkx")
    from . import _reference_termination as reference

    nx = reference.nx
    graphs = []
    components = nx.strongly_connected_components
    monkeypatch.setattr(
        nx, "strongly_connected_components",
        lambda graph: graphs.append(graph) or components(graph))

    programs = [*SHIPPED.values(), *corpus_programs().values(),
                *grammar_programs(200), *CYCLING.values()]
    rejected = several = 0
    for source in programs:
        info = check(source)
        del graphs[:]
        want = _outcome(reference.check_global_termination, info)
        got = _outcome(check_global_termination, info)
        if not isinstance(want, str) or not graphs:
            assert got == want, source  # accepted, or enumeration refused
            continue
        rejected += 1
        cycling = {(u.channel, str(u.dst), str(u.port), v.channel,
                    str(v.dst), str(data["emission"].line))
                   for u, v, data in graphs[0].edges(data=True)
                   if data["rewrite"] and nx.has_path(graphs[0], v, u)}
        if len(cycling) == 1:
            assert got == want, source
        else:
            several += 1
            assert _NAMED_EDGE.search(got).groups() in cycling, source
    assert rejected > 50 and several >= 2
