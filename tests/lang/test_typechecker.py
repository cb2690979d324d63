"""Type-checker unit tests, including the language restrictions."""

import pytest

from repro.lang import TypeCheckError, parse, typecheck
from repro.lang import types as T

FORWARD = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
           "(OnRemote(network, p); (ps, ss))")


def check(source: str):
    return typecheck(parse(source))


def fails(source: str, pattern: str):
    with pytest.raises(TypeCheckError, match=pattern):
        check(source)


class TestValsAndFuns:
    def test_val_with_matching_type(self):
        info = check(f"val x : int = 1 + 2\n{FORWARD}")
        assert info.vals["x"] == T.INT

    def test_val_type_mismatch(self):
        fails(f"val x : int = true\n{FORWARD}", "declared int")

    def test_duplicate_val(self):
        fails(f"val x : int = 1\nval x : int = 2\n{FORWARD}",
              "duplicate val")

    def test_host_val(self):
        info = check(f"val h : host = 10.0.0.1\n{FORWARD}")
        assert info.vals["h"] == T.HOST

    def test_fun_return_type_checked(self):
        fails(f"fun f(x : int) : bool = x + 1\n{FORWARD}",
              "declared bool")

    def test_fun_duplicate_param(self):
        fails(f"fun f(x : int, x : int) : int = x\n{FORWARD}",
              "duplicate parameter")

    def test_fun_shadows_primitive_rejected(self):
        fails(f"fun tcpDst(x : int) : int = x\n{FORWARD}", "redefines")

    def test_fun_call_arity(self):
        fails("fun f(x : int) : int = x\n"
              "val y : int = f(1, 2)\n" + FORWARD, "expects 1")

    def test_fun_call_arg_type(self):
        fails("fun f(x : int) : int = x\n"
              "val y : int = f(true)\n" + FORWARD, "argument 1")


class TestNoRecursion:
    def test_self_recursion_rejected(self):
        fails(f"fun f(x : int) : int = f(x)\n{FORWARD}",
              "unknown function")

    def test_forward_call_rejected(self):
        fails("fun f(x : int) : int = g(x)\n"
              "fun g(x : int) : int = x\n" + FORWARD,
              "unknown function")

    def test_backward_call_allowed(self):
        info = check("fun g(x : int) : int = x + 1\n"
                     "fun f(x : int) : int = g(g(x))\n" + FORWARD)
        assert set(info.funs) == {"f", "g"}


class TestChannels:
    def test_program_needs_a_channel(self):
        fails("val x : int = 1", "at least one channel")

    def test_body_must_return_state_pair(self):
        fails("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
              "(OnRemote(network, p); ps)", "state pair")

    def test_initstate_type_checked(self):
        fails("channel network(ps : int, ss : int, p : ip*tcp*blob) "
              "initstate true is (OnRemote(network, p); (ps, ss))",
              "initstate")

    def test_network_requires_packet_type(self):
        fails("channel network(ps : int, ss : unit, p : int) is "
              "(ps, ss)", "not a valid packet type")

    def test_overloaded_network_allowed(self):
        info = check(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (ps, ss))\n"
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is "
            "(OnRemote(network, p); (ps, ss))")
        assert len(info.channels["network"]) == 2

    def test_duplicate_overload_rejected(self):
        fails(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (ps, ss))\n"
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (ps, ss))", "duplicate network")

    def test_non_network_duplicate_rejected(self):
        fails(
            "channel mine(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(mine, p); (ps, ss))\n"
            "channel mine(ps : int, ss : unit, p : ip*udp*blob) is "
            "(OnRemote(mine, p); (ps, ss))", "only 'network'")

    def test_protocol_state_shared_type(self):
        fails(
            "channel a(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(a, p); (ps, ss))\n"
            "channel b(ps : bool, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(b, p); (ps, ss))", "shared")

    def test_channel_name_not_a_value(self):
        fails("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
              "(network, ss)", "first argument of OnRemote")


class TestEmissions:
    def test_onremote_unknown_channel(self):
        fails("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
              "(OnRemote(nochan, p); (ps, ss))", "is not a channel")

    def test_onremote_packet_type_checked(self):
        fails("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
              "(OnRemote(network, 42); (ps, ss))",
              "does not match channel")

    def test_onremote_first_arg_must_be_name(self):
        fails("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
              "(OnRemote(1 + 1, p); (ps, ss))", "channel name")

    def test_onneighbor_host_arg(self):
        fails("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
              "(OnNeighbor(network, p, 42); (ps, ss))", "must be host")

    def test_onneighbor_ok(self):
        check("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
              "(OnNeighbor(network, p, 10.0.0.1); (ps, ss))")

    def test_emission_to_overloaded_channel_matches_any(self):
        check(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (ps, ss))\n"
            "channel network(ps : int, ss : unit, p2 : ip*udp*blob) is "
            "(OnRemote(network, p2); (ps, ss))")


class TestExpressions:
    def _expr_program(self, ty: str, expr: str) -> str:
        return (f"channel network(ps : int, ss : unit, "
                f"p : ip*tcp*blob) is "
                f"let val x : {ty} = {expr} in "
                f"(OnRemote(network, p); (ps, ss)) end")

    def test_arithmetic_needs_ints(self):
        fails(self._expr_program("int", "1 + true"), "needs int")

    def test_caret_needs_strings(self):
        fails(self._expr_program("string", '1 ^ "a"'), "needs string")

    def test_equality_type_restriction(self):
        fails(self._expr_program("bool", "#2 p = #2 p"),
              "does not admit equality")

    def test_comparison_on_strings_ok(self):
        check(self._expr_program("bool", '"a" < "b"'))

    def test_comparison_on_bools_rejected(self):
        fails(self._expr_program("bool", "true < false"),
              "needs int, string or char")

    def test_if_condition_must_be_bool(self):
        fails(self._expr_program("int", "if 1 then 2 else 3"),
              "must be bool")

    def test_if_branches_must_agree(self):
        fails(self._expr_program("int", "if true then 1 else false"),
              "incompatible types")

    def test_seq_intermediate_must_be_unit(self):
        fails(self._expr_program("int", "(1; 2)"), "type unit")

    def test_projection_range(self):
        fails(self._expr_program("int", "#9 p"), "out of range")

    def test_projection_non_tuple(self):
        fails(self._expr_program("int", "#1 ps"), "non-tuple")

    def test_unbound_variable(self):
        fails(self._expr_program("int", "nosuch"), "unbound variable")

    def test_unknown_function(self):
        fails(self._expr_program("int", "nosuchfun(1)"),
              "unknown function")

    def test_cons_types(self):
        check(self._expr_program("(int) list", "1 :: listNew()"))
        fails(self._expr_program("(int) list", "1 :: 2"),
              "list right operand")

    def test_table_remove(self):
        table = "let val t : (int) hash_table = mkTable(4) in "
        check(self._expr_program("unit", table + "tableRemove(t, 3) end"))
        check(self._expr_program("unit",
                                 table + 'tableRemove(t, "k") end'))
        fails(self._expr_program("unit", table + "tableRemove(t) end"),
              r"tableRemove expects 2 argument\(s\), got 1")
        fails(self._expr_program("unit", "tableRemove(listNew(), 3)"),
              "tableRemove expects a hash_table first argument")
        fails(self._expr_program("unit", table + "tableRemove(t, #2 p) end"),
              "tableRemove key type tcp does not admit equality")
        fails(self._expr_program("int", table + "tableRemove(t, 3) end"),
              "declared int")

    def test_list_head(self):
        check(self._expr_program("int", "listHead(1 :: listNew())"))
        check(self._expr_program("string", 'listHead("a" :: listNew())'))
        fails(self._expr_program("int", "listHead()"),
              r"listHead expects 1 argument\(s\), got 0")
        fails(self._expr_program("int", "listHead(1 :: listNew(), 2)"),
              r"listHead expects 1 argument\(s\), got 2")
        fails(self._expr_program("int", "listHead(mkTable(4))"),
              "listHead expects a list")
        fails(self._expr_program("bool", "listHead(1 :: listNew())"),
              "declared bool")

    def test_mktable_flows_into_declared_type(self):
        check(self._expr_program("(host) hash_table", "mkTable(16)"))

    def test_raise_fits_anywhere(self):
        check(self._expr_program("int", "raise NotFound"))

    def test_try_unknown_exception(self):
        fails(self._expr_program("int", "try 1 handle Bogus => 2"),
              "unknown exception")

    def test_user_exception_usable(self):
        check("exception Mine\n" + self._expr_program(
            "int", "try raise Mine handle Mine => 2"))

    def test_exception_cannot_shadow_builtin(self):
        fails("exception NotFound\n" + FORWARD, "shadows a built-in")

    def test_annotations_set_on_ast(self):
        info = check(FORWARD)
        body = info.channels["network"][0].body
        assert body.ty is not None
