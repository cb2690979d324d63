"""Parser unit tests."""

import pytest

from repro.lang import ParseError, parse, parse_expr, tokenize
from repro.lang import ast
from repro.lang import types as T
from repro.lang.parser import MAX_NESTING, Parser


class TestDeclarations:
    def test_val_decl(self):
        prog = parse("val x : int = 3\n"
                     "channel network(a : int, b : unit, "
                     "p : ip*tcp*blob) is (OnRemote(network, p); (a, b))")
        assert isinstance(prog.decls[0], ast.ValDecl)
        assert prog.decls[0].name == "x"
        assert prog.decls[0].declared == T.INT

    def test_fun_decl(self):
        prog = parse("fun f(a : int, b : int) : int = a + b")
        fun = prog.decls[0]
        assert isinstance(fun, ast.FunDecl)
        assert [p.name for p in fun.params] == ["a", "b"]
        assert fun.return_type == T.INT

    def test_channel_decl_with_initstate(self):
        prog = parse("channel network(ps : int, ss : (int) hash_table, "
                     "p : ip*tcp*blob) initstate mkTable(256) is (ps, ss)")
        chan = prog.channels[0]
        assert chan.initstate is not None
        assert isinstance(chan.initstate, ast.Call)

    def test_channel_needs_three_params(self):
        with pytest.raises(ParseError, match="three parameters"):
            parse("channel network(a : int, b : unit) is (a, b)")

    def test_exception_decl(self):
        prog = parse("exception Oops")
        assert isinstance(prog.decls[0], ast.ExceptionDecl)
        assert prog.decls[0].name == "Oops"

    def test_type_keyword_as_binding_name(self):
        # The paper writes ``val tcp : tcp = #2 p``.
        expr = parse_expr("let val tcp : tcp = #2 p in tcp end")
        assert isinstance(expr, ast.Let)
        assert expr.bindings[0].name == "tcp"

    def test_garbage_at_top_level(self):
        with pytest.raises(ParseError, match="expected a declaration"):
            parse("42")


class TestTypes:
    def _ty(self, text: str) -> T.Type:
        prog = parse(f"fun f(x : {text}) : int = 1")
        return prog.decls[0].params[0].declared

    def test_base_types(self):
        assert self._ty("int") == T.INT
        assert self._ty("host") == T.HOST
        assert self._ty("blob") == T.BLOB

    def test_tuple_type(self):
        assert self._ty("ip*tcp*blob") == T.TupleType((T.IP, T.TCP,
                                                       T.BLOB))

    def test_parenthesised_tuple_in_tuple(self):
        got = self._ty("(host*int)*bool")
        assert got == T.TupleType((T.TupleType((T.HOST, T.INT)), T.BOOL))

    def test_hash_table_type(self):
        assert self._ty("(int) hash_table") == T.HashTableType(T.INT)

    def test_nested_hash_table(self):
        got = self._ty("((int) list) hash_table")
        assert got == T.HashTableType(T.ListType(T.INT))

    def test_list_type(self):
        assert self._ty("(host) list") == T.ListType(T.HOST)

    def test_postfix_binds_tighter_than_star(self):
        got = self._ty("int hash_table*bool")
        assert got == T.TupleType((T.HashTableType(T.INT), T.BOOL))


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert isinstance(expr, ast.BinOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinOp) and expr.right.op == "*"

    def test_precedence_cmp_over_bool(self):
        expr = parse_expr("a = 1 andalso b = 2")
        assert expr.op == "andalso"
        assert expr.left.op == "="

    def test_orelse_lower_than_andalso(self):
        expr = parse_expr("a andalso b orelse c")
        assert expr.op == "orelse"
        assert expr.left.op == "andalso"

    def test_comparison_non_associative(self):
        with pytest.raises(ParseError):
            parse_expr("1 = 2 = 3")

    def test_unary_minus(self):
        expr = parse_expr("-x + 1")
        assert expr.op == "+"
        assert isinstance(expr.left, ast.UnOp)

    def test_not(self):
        expr = parse_expr("not a andalso b")
        assert expr.op == "andalso"
        assert isinstance(expr.left, ast.UnOp)

    def test_projection_binds_tightest(self):
        expr = parse_expr("#1 p + 1")
        assert expr.op == "+"
        assert isinstance(expr.left, ast.Proj)

    def test_nested_projection(self):
        expr = parse_expr("#2 #1 p")
        assert isinstance(expr, ast.Proj) and expr.index == 2
        assert isinstance(expr.tuple_expr, ast.Proj)

    def test_projection_index_zero_rejected(self):
        with pytest.raises(ParseError, match=">= 1"):
            parse_expr("#0 p")

    def test_cons_right_associative(self):
        expr = parse_expr("1 :: 2 :: listNew()")
        assert expr.op == "::"
        assert isinstance(expr.right, ast.BinOp) and expr.right.op == "::"

    def test_string_concat(self):
        expr = parse_expr('"a" ^ "b"')
        assert expr.op == "^"

    def test_call_no_args(self):
        expr = parse_expr("thisHost()")
        assert isinstance(expr, ast.Call)
        assert expr.args == []

    def test_call_with_args(self):
        expr = parse_expr("f(1, 2, 3)")
        assert len(expr.args) == 3

    def test_sequence(self):
        expr = parse_expr("(a; b; c)")
        assert isinstance(expr, ast.Seq)
        assert len(expr.exprs) == 3

    def test_tuple(self):
        expr = parse_expr("(1, 2)")
        assert isinstance(expr, ast.TupleExpr)

    def test_parenthesised_expression_is_transparent(self):
        expr = parse_expr("(1)")
        assert isinstance(expr, ast.IntLit)

    def test_let_multiple_bindings(self):
        expr = parse_expr(
            "let val a : int = 1 val b : int = a in a + b end")
        assert len(expr.bindings) == 2

    def test_let_requires_binding(self):
        with pytest.raises(ParseError):
            parse_expr("let in 1 end")

    def test_if_then_else(self):
        expr = parse_expr("if a then 1 else 2")
        assert isinstance(expr, ast.If)

    def test_try_handle(self):
        expr = parse_expr("try f(x) handle NotFound => 0")
        assert isinstance(expr, ast.Try)
        assert expr.exn == "NotFound"

    def test_try_wildcard(self):
        expr = parse_expr("try f(x) handle _ => 0")
        assert expr.exn == "_"

    def test_raise(self):
        expr = parse_expr("raise NotFound")
        assert isinstance(expr, ast.Raise)

    def test_ip_literal_expression(self):
        expr = parse_expr("10.1.2.3")
        assert isinstance(expr, ast.HostLit)
        assert expr.value == "10.1.2.3"

    def test_unit_literal(self):
        assert isinstance(parse_expr("()"), ast.UnitLit)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="trailing input"):
            parse_expr("1 2")

    def test_missing_end_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("let val a : int = 1 in a")
        assert "end" in str(err.value)


def _channel(body):
    return ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            + body)


#: One-token-per-level ways to nest: what opens a level, the innermost
#: text, what closes a level.
NESTERS = {
    "parens": ("(", "1", ")"),
    "tuple": ("(1, ", "1", ")"),
    "sequence": ("(1; ", "1", ")"),
    "call": ("f(", "1", ")"),
    "let": ("let val a : int = 1 in ", "1", " end"),
    "let-binding": ("let val a : int = ", "1", " in a end"),
    "if-else": ("if true then 1 else ", "1", ""),
    "if-cond": ("if ", "true", " then 1 else 1"),
    "try": ("try ", "1", " handle E => 1"),
    "not": ("not ", "true", ""),
    "negate": ("- ", "1", ""),
    "projection": ("#1 ", "p", ""),
    "cons": ("1 :: ", "xs", ""),
    "plus": ("1 + ", "1", ""),
    "times": ("1 * ", "1", ""),
    "orelse": ("true orelse ", "true", ""),
    "andalso": ("true andalso ", "true", ""),
}


class TestNestingLimit:
    """Source text comes off the wire; no amount of nesting in it may
    reach the interpreter's recursion limit (it used to: ninety
    parentheses, a 200-byte program, raised RecursionError)."""

    def test_ninety_parentheses_are_a_parse_error(self):
        source = _channel("(" * 90 + "(ps, ss)" + ")" * 90)
        with pytest.raises(ParseError,
                           match=f"nested deeper than {MAX_NESTING}"):
            parse(source)

    def test_error_points_at_the_level_that_went_too_far(self):
        with pytest.raises(ParseError) as err:
            parse_expr("(" * 200 + "1" + ")" * 200)
        assert err.value.pos.line == 1
        # The whole expression is level 1, so paren n opens level n + 1.
        assert err.value.pos.column == MAX_NESTING + 1

    def test_limit_does_not_follow_the_recursion_limit(self):
        import sys
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20_000)
        try:
            with pytest.raises(ParseError, match="nested deeper"):
                parse_expr("(" * 300 + "1" + ")" * 300)
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize("name", sorted(NESTERS))
    def test_every_way_to_nest_is_bounded(self, name):
        opener, core, closer = NESTERS[name]
        just_under = MAX_NESTING - 2
        parse_expr(opener * just_under + core + closer * just_under)
        with pytest.raises(ParseError, match="nested deeper"):
            parse_expr(opener * 5000 + core + closer * 5000)

    @pytest.mark.parametrize("opener,closer", [
        ("(", ")"), ("", " list"), ("", " hash_table")])
    def test_types_are_bounded_too(self, opener, closer):
        def declare(n):
            return f"val x : {opener * n}int{closer * n} = y"
        parse(declare(MAX_NESTING - 2))
        with pytest.raises(ParseError, match="type nested deeper"):
            parse(declare(5000))

    def test_shipped_programs_are_nowhere_near_the_limit(self):
        from tests.corpora import SHIPPED

        deepest = 0

        class Probe(Parser):
            def _deeper(self, pos, what="expression"):
                nonlocal deepest
                super()._deeper(pos, what)
                deepest = max(deepest, self._depth)

        for source in SHIPPED.values():
            Probe(tokenize(source)).parse_program()
        assert 0 < deepest <= MAX_NESTING // 4

    def test_siblings_do_not_add_up(self):
        wide = "(" + ", ".join(["(1, (2, 3))"] * 500) + ")"
        assert len(parse_expr(wide).elems) == 500
        parse(_channel("(" + "print(\"x\"); " * 500 + "(ps, ss))"))


class TestPaperFragments:
    def test_figure2_fragment_parses(self):
        """The load-balancing fragment of the paper's figure 2 (with the
        elided pieces filled in)."""
        source = """
channel network(ps : int, ss : (int) hash_table, p : ip*tcp*blob)
initstate mkTable(256) is
  let
    val iph : ip = #1 p
    val tcp : tcp = #2 p
    val body : blob = #3 p
  in
    if (tcpDst(tcp) = 80) then
      -- incoming HTTP requests
      let
        val con : int = tableGetDefault(ss, ipSrc(iph), 0)
      in
        if (con = 0) then
          (OnRemote(network, (ipDestSet(iph, 131.254.60.81), tcp, body));
           (con, ss))
        else
          (OnRemote(network, (ipDestSet(iph, 131.254.60.109), tcp, body));
           (con, ss))
      end
    else
      (OnRemote(network, p); (ps, ss))
  end
"""
        prog = parse(source)
        assert len(prog.channels) == 1

    def test_figure4_overloaded_channels_parse(self):
        source = """
val CmdA : int = 1
val CmdB : int = 2

channel network(ps : unit, ss : unit, p : ip*tcp*char*int) is
  if charPos(#3 p) = CmdA then
    (print("CmdA: "); println(#4 p); deliver(p); (ps, ss))
  else
    (OnRemote(network, p); (ps, ss))

channel network(ps : unit, ss : unit, p : ip*tcp*char*bool) is
  if charPos(#3 p) = CmdB then
    (print("CmdB: "); println(#4 p); deliver(p); (ps, ss))
  else
    (OnRemote(network, p); (ps, ss))
"""
        prog = parse(source)
        assert len(prog.channels) == 2
