"""Path-walker unit tests."""

import pytest

from repro.analysis.paths import (DstKind, PortKind, channel_paths)
from repro.lang import VerificationError, parse, typecheck


def paths_of(source: str, overload: int = 0):
    info = typecheck(parse(source))
    decl = info.channels["network"][overload]
    return channel_paths(info, decl)


class TestEnumeration:
    def test_straight_line_has_one_path(self):
        paths = paths_of(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (ps, ss))")
        assert len(paths) == 1
        assert len(paths[0].emissions) == 1

    def test_if_doubles_paths(self):
        paths = paths_of(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "if tcpSyn(#2 p) then (OnRemote(network, p); (ps, ss)) "
            "else (deliver(p); (ps, ss))")
        assert len(paths) == 2
        assert sorted(len(p.emissions) for p in paths) == [0, 1]
        assert any(p.delivers for p in paths)

    def test_try_adds_handler_path(self):
        paths = paths_of(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); "
            "(try blobByte(#3 p, 0) handle _ => 0, ss))")
        assert len(paths) == 2

    def test_drop_flagged(self):
        paths = paths_of(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(drop(p); deliver(p); (ps, ss))")
        assert paths[0].drops


class TestAbstraction:
    def test_unchanged_forward_is_orig(self):
        paths = paths_of(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (ps, ss))")
        emission = paths[0].emissions[0]
        assert emission.dst.kind is DstKind.ORIG
        assert emission.port.kind is PortKind.ORIG

    def test_literal_rewrite_tracked(self):
        paths = paths_of(
            "val target : host = 10.1.2.3\n"
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, (ipDestSet(#1 p, target), #2 p, #3 p)); "
            "(ps, ss))")
        emission = paths[0].emissions[0]
        assert emission.dst.kind is DstKind.LIT
        assert str(emission.dst.literal) == "10.1.2.3"

    def test_swap_becomes_src(self):
        paths = paths_of(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is "
            "(OnRemote(network, (ipSwap(#1 p), #2 p, #3 p)); (ps, ss))")
        assert paths[0].emissions[0].dst.kind is DstKind.SRC

    def test_port_rewrite_tracked(self):
        paths = paths_of(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is "
            "(OnRemote(network, (#1 p, udpDstSet(#2 p, 999), #3 p)); "
            "(ps, ss))")
        emission = paths[0].emissions[0]
        assert emission.port.kind is PortKind.LIT
        assert emission.port.literal == 999

    def test_src_set_preserves_dst(self):
        paths = paths_of(
            "val v : host = 10.0.0.1\n"
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, (ipSrcSet(#1 p, v), #2 p, #3 p)); "
            "(ps, ss))")
        assert paths[0].emissions[0].dst.kind is DstKind.ORIG


class TestGuards:
    def test_port_guard_constrains_then_branch(self):
        paths = paths_of(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "if tcpDst(#2 p) = 80 then (deliver(p); (ps, ss)) "
            "else (OnRemote(network, p); (ps, ss))")
        then_path = next(p for p in paths if p.delivers)
        else_path = next(p for p in paths if not p.delivers)
        assert then_path.constraint.eq == 80
        assert 80 in else_path.constraint.neq

    def test_guard_via_global_constant(self):
        paths = paths_of(
            "val web : int = 80\n"
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "if tcpDst(#2 p) = web then (deliver(p); (ps, ss)) "
            "else (OnRemote(network, p); (ps, ss))")
        assert any(p.constraint.eq == 80 for p in paths)

    def test_conjunction_applies_both_guards(self):
        paths = paths_of(
            "val v : host = 10.0.0.1\n"
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "if tcpDst(#2 p) = 80 andalso ipDst(#1 p) = v then "
            "(deliver(p); (ps, ss)) "
            "else (OnRemote(network, p); (ps, ss))")
        guarded = next(p for p in paths if p.delivers)
        assert guarded.constraint.eq == 80
        assert str(guarded.constraint.dst_eq) == "10.0.0.1"

    def test_contradictory_guards_prune_path(self):
        paths = paths_of(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "if tcpDst(#2 p) = 80 then "
            "  (if tcpDst(#2 p) = 81 then (drop(p); (ps, ss)) "
            "   else (deliver(p); (ps, ss))) "
            "else (OnRemote(network, p); (ps, ss))")
        # The 80-and-81 path is infeasible: no path may drop.
        assert not any(p.drops for p in paths)
        assert len(paths) == 2

    def test_constraint_admits(self):
        from repro.analysis.paths import Port, PortConstraint, PortKind

        constraint = PortConstraint(eq=80)
        assert constraint.admits(Port(PortKind.LIT, 80))
        assert not constraint.admits(Port(PortKind.LIT, 81))
        assert constraint.admits(Port(PortKind.ORIG))

    def test_budget_rejects_pathological_programs(self):
        # 2^24 paths from nested branch chains blows the budget.
        cond = "tcpSyn(#2 p)"
        branch = "(if {c} then 1 else 2)".format(c=cond)
        exprs = " + ".join([branch] * 24)
        src = (f"channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               f"(OnRemote(network, p); ({exprs}, ss))")
        with pytest.raises(VerificationError, match="budget"):
            paths_of(src)

    @pytest.mark.parametrize("deep_call_first", [True, False])
    def test_past_both_limits_is_refused_either_way(self, deep_call_first):
        """A body past the path budget that also calls a helper chain
        past INLINE_DEPTH is refused whichever comes first.  Which of
        the two reasons is named depends on the order sub-walks run
        in, so only the refusal is pinned."""
        funs = ["fun f1(x : int) : unit = ()"] + [
            f"fun f{i}(x : int) : unit = f{i - 1}(x)" for i in range(2, 36)]
        explode = "".join(f"(if ps = {i} then () else ()); "
                          for i in range(16))
        body = ("f35(ps); " + explode if deep_call_first
                else explode + "f35(ps); ")
        src = ("\n".join(funs) + "\nchannel network(ps : int, ss : int, "
               f"p : ip*udp*blob) is ({body}OnRemote(network, p); (ps, ss))")
        with pytest.raises(VerificationError,
                           match="budget exceeded|inlining depth exceeded"):
            paths_of(src)
