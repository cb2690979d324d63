"""Interpreter unit tests: expression semantics and channel execution."""

import pytest

from repro.interp import Interpreter, RecordingContext
from repro.interp.env import Env
from repro.interp.interpreter import _sml_div
from repro.interp.values import PlanPList
from repro.lang import PlanPRuntimeError, parse, typecheck

from ..conftest import FORWARD_SRC, run_packet, tcp_packet_value


def eval_expr(source: str, expected_type=None):
    """Type check and interpret one closed expression."""
    program_src = (f"val result : {expected_type or 'int'} = {source}\n"
                   f"{FORWARD_SRC}")
    info = typecheck(parse(program_src))
    interp = Interpreter(info)
    ctx = RecordingContext()
    return interp.globals_env(ctx).lookup("result"), ctx


class TestLiteralsAndOperators:
    def test_arithmetic(self):
        assert eval_expr("2 + 3 * 4")[0] == 14

    def test_subtraction_and_unary_minus(self):
        assert eval_expr("-(5 - 9)")[0] == 4

    def test_division_truncates_toward_zero(self):
        # C semantics, matching the paper's C interpreter.
        assert eval_expr("7 / 2")[0] == 3
        assert eval_expr("(0 - 7) / 2")[0] == -3
        assert eval_expr("7 / (0 - 2)")[0] == -3

    def test_sml_div_helper(self):
        assert _sml_div(-7, 2) == -3
        assert _sml_div(7, -2) == -3
        assert _sml_div(-7, -2) == 3

    def test_mod(self):
        assert eval_expr("10 mod 3")[0] == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(PlanPRuntimeError) as err:
            eval_expr("1 / 0")
        assert err.value.exception_name == "DivideByZero"

    def test_mod_by_zero_raises(self):
        with pytest.raises(PlanPRuntimeError):
            eval_expr("1 mod 0")

    def test_string_concat(self):
        assert eval_expr('"ab" ^ "cd"', "string")[0] == "abcd"

    def test_comparisons(self):
        assert eval_expr("1 < 2", "bool")[0] is True
        assert eval_expr('"b" >= "a"', "bool")[0] is True
        assert eval_expr("3 <> 3", "bool")[0] is False

    def test_equality_on_tuples(self):
        assert eval_expr("(1, true) = (1, true)", "bool")[0] is True

    def test_not(self):
        assert eval_expr("not (1 = 2)", "bool")[0] is True

    def test_short_circuit_andalso(self):
        # The right operand would raise; short-circuiting avoids it.
        value, _ = eval_expr("false andalso (1 / 0 = 0)", "bool")
        assert value is False

    def test_short_circuit_orelse(self):
        value, _ = eval_expr("true orelse (1 / 0 = 0)", "bool")
        assert value is True

    def test_cons(self):
        value, _ = eval_expr("1 :: 2 :: listNew()", "(int) list")
        assert value == PlanPList((1, 2))


class TestBindingAndControl:
    def test_let_scoping(self):
        assert eval_expr(
            "let val a : int = 2 val b : int = a * 3 in a + b end")[0] == 8

    def test_let_shadowing(self):
        src = ("let val a : int = 1 in "
               "(let val a : int = 2 in a end) + a end")
        assert eval_expr(src)[0] == 3

    def test_if(self):
        assert eval_expr("if 2 > 1 then 10 else 20")[0] == 10

    def test_seq_returns_last(self):
        value, ctx = eval_expr('(print("x"); 5)')
        assert value == 5
        assert ctx.printed == ["x"]

    def test_tuple_and_projection(self):
        assert eval_expr("#2 (10, 20, 30)")[0] == 20

    def test_try_catches_matching(self):
        assert eval_expr("try 1 / 0 handle DivideByZero => 99")[0] == 99

    def test_try_wildcard(self):
        assert eval_expr("try 1 / 0 handle _ => 42")[0] == 42

    def test_try_mismatched_propagates(self):
        with pytest.raises(PlanPRuntimeError):
            eval_expr("try 1 / 0 handle NotFound => 0")

    def test_user_exception(self):
        src = ("exception Mine\n"
               "val result : int = try raise Mine handle Mine => 7\n"
               + FORWARD_SRC)
        info = typecheck(parse(src))
        interp = Interpreter(info)
        assert interp.globals_env(RecordingContext()).lookup(
            "result") == 7


class TestFunctions:
    def test_fun_call(self):
        src = ("fun double(x : int) : int = x * 2\n"
               "val result : int = double(21)\n" + FORWARD_SRC)
        info = typecheck(parse(src))
        assert Interpreter(info).globals_env(
            RecordingContext()).lookup("result") == 42

    def test_fun_sees_globals_not_caller_locals(self):
        src = ("val g : int = 100\n"
               "fun f(x : int) : int = x + g\n"
               "val result : int = let val g : int = 1 in f(1) end\n"
               + FORWARD_SRC)
        info = typecheck(parse(src))
        assert Interpreter(info).globals_env(
            RecordingContext()).lookup("result") == 101

    def test_nested_fun_calls(self):
        src = ("fun inc(x : int) : int = x + 1\n"
               "fun twice(x : int) : int = inc(inc(x))\n"
               "val result : int = twice(0)\n" + FORWARD_SRC)
        info = typecheck(parse(src))
        assert Interpreter(info).globals_env(
            RecordingContext()).lookup("result") == 2


class TestChannelExecution:
    def test_forward_increments_state(self):
        ps, _ss, ctx = run_packet(FORWARD_SRC, tcp_packet_value(),
                                  repeat=3)
        assert ps == 3
        assert len(ctx.remote_emissions) == 3

    def test_initstate_evaluated_once_per_install(self):
        src = ("channel network(ps : int, ss : (int) hash_table, "
               "p : ip*tcp*blob) initstate mkTable(8) is "
               "(tableSet(ss, 1, tableGetDefault(ss, 1, 0) + 1); "
               "OnRemote(network, p); (ps, ss))")
        ps, ss, _ = run_packet(src, tcp_packet_value(), repeat=5)
        assert ss.get(1) == 5

    def test_channel_state_default_without_initstate(self):
        src = ("channel network(ps : int, ss : int, p : ip*tcp*blob) is "
               "(OnRemote(network, p); (ps, ss + 1))")
        _ps, ss, _ = run_packet(src, tcp_packet_value(), repeat=4)
        assert ss == 4

    def test_emission_carries_transformed_packet(self):
        src = ("val target : host = 9.9.9.9\n"
               "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(OnRemote(network, (ipDestSet(#1 p, target), #2 p, #3 p));"
               " (ps, ss))")
        _ps, _ss, ctx = run_packet(src, tcp_packet_value())
        assert str(ctx.remote_emissions[0].packet_value[0].dst) == \
            "9.9.9.9"

    def test_onneighbor_records_neighbor(self):
        src = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(OnNeighbor(network, p, 10.0.0.5); (ps, ss))")
        _ps, _ss, ctx = run_packet(src, tcp_packet_value())
        emission = ctx.emissions[0]
        assert emission.kind == "neighbor"
        assert str(emission.neighbor) == "10.0.0.5"

    def test_globals_shared_across_invocations(self):
        src = ("val table : (int) hash_table = mkTable(4)\n"
               "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(tableSet(table, 0, tableGetDefault(table, 0, 0) + 1); "
               "OnRemote(network, p); (tableGetDefault(table, 0, 0), ss))")
        ps, _ss, _ = run_packet(src, tcp_packet_value(), repeat=3)
        assert ps == 3

    def test_env_lookup_failure_is_internal_error(self):
        env = Env()
        with pytest.raises(KeyError):
            env.lookup("nope")
