"""The effect walk: one structural walk per body, read by delivery, the
wire summary and local termination."""

import pytest

from repro.analysis import check_local_termination, wire_summary
from repro.analysis.effects import EffectWalk
from repro.lang import VerificationError, ast, parse, typecheck


def check(source: str):
    return typecheck(parse(source))


def channel_effects(source: str):
    info = check(source)
    return EffectWalk(info).of(info.channels["network"][0].body)


CHANNEL = "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "


class TestFacts:
    def test_every_fact_of_one_body(self):
        facts = channel_effects(
            "exception Boom\n"
            "fun toss(p : ip*tcp*blob) : unit = drop(p)\n"
            "fun fwd(p : ip*tcp*blob) : unit = OnNeighbor(tap, p, "
            "thisHost())\n"
            "channel tap(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(deliver(p); (ps, ss))\n" + CHANNEL +
            "(toss(p); fwd(p); OnRemote(network, p); "
            "(if ps > 9 then raise Boom else 1 / ps, ss))")
        assert facts.escapes == {"Boom", "DivideByZero"}
        assert facts.exits
        assert [c.func for c in facts.drops] == ["drop"]
        assert facts.emits == {"tap", "network"}
        assert not facts.delivers
        assert [c.func for c in facts.fun_calls] == ["toss", "fwd"]

    def test_wildcard_handler_raises_only_its_own(self):
        facts = channel_effects(
            CHANNEL + "(OnRemote(network, p); "
            "(try blobByte(#3 p, 0) handle _ => 1 / ps, ss))")
        assert facts.escapes == {"DivideByZero"}

    def test_only_the_left_operand_of_andalso_exits(self):
        facts = channel_effects(
            CHANNEL + "(if ps > 0 andalso (OnRemote(network, p); true) "
            "then () else (); (ps, ss))")
        assert not facts.exits

    def test_try_exits_only_if_body_and_handler_exit(self):
        facts = channel_effects(
            CHANNEL + "((try OnRemote(network, p) handle _ => ()); "
            "(ps, ss))")
        assert not facts.exits

    def test_drops_own_in_pre_order_then_callees_in_call_order(self):
        info = check(
            "fun a(p : ip*tcp*blob) : unit = drop(p)\n"
            "fun b(p : ip*tcp*blob) : unit = (drop(p); a(p))\n"
            "fun c(x : unit, y : unit) : unit = ()\n" + CHANNEL +
            "(c(a(p), b(p));\n drop(p);\n OnRemote(network, p); (ps, ss))")
        facts = EffectWalk(info).of(info.channels["network"][0].body)
        lines = [c.pos.line for c in facts.drops]
        # the channel's own (line 5), then a's (line 1), then b's own
        # (line 2): b's call of a adds nothing new
        assert lines == [5, 1, 2]
        assert [c.func for c in facts.fun_calls] == ["c", "a", "b"]


class TestRecursionGuard:
    """The type checker rejects recursion; a hand-built AST can still
    hold some, and the walk must return on it."""

    def recursive(self):
        info = check("fun f(p : ip*tcp*blob) : unit = OnRemote(network, p)\n"
                     + CHANNEL + "(f(p); (ps, ss))")
        body = info.funs["f"].decl.body
        info.funs["f"].decl.body = ast.Seq(exprs=[
            body, ast.Call(func="f", args=[ast.Var(name="p")])])
        return info

    def test_wire_summary_and_the_walk_return(self):
        info = self.recursive()
        assert wire_summary(info).channel("network").emits == ("network",)
        facts = EffectWalk(info).of_fun("f")
        assert facts.emits == {"network"} and facts.exits
        assert [c.func for c in facts.fun_calls] == ["f"]

    def test_mutual_recursion_returns(self):
        info = check("fun a(p : ip*tcp*blob) : unit = ()\n"
                     "fun b(p : ip*tcp*blob) : unit = a(p)\n"
                     + CHANNEL + "(b(p); OnRemote(network, p); (ps, ss))")
        info.funs["a"].decl.body = ast.Call(func="b",
                                            args=[ast.Var(name="p")])
        walk = EffectWalk(info)
        assert [c.func for c in walk.of_fun("a").fun_calls] == ["b"]
        assert [c.func for c in walk.of_fun("b").fun_calls] == ["a"]

    def test_local_termination_names_the_self_call(self):
        info = self.recursive()
        with pytest.raises(VerificationError,
                           match="function 'f' calls itself"):
            check_local_termination(info)
