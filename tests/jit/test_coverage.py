"""The JIT is derived from the interpreter, case for case.

The paper's maintainability claim: extending the interpreter and
regenerating the specializer keeps them in sync.  This test enforces the
analogue mechanically — every AST node type the interpreter evaluates
must be handled by both JIT backends (by source inspection), so adding a
construct to one layer without the others fails CI rather than diverging
silently.  Operators are not mirrored but defined once, in ``OPERATORS``;
the table must hold every operator the parser produces, each with an
operand class the type checker has a rule for.
"""

import inspect

from repro import jit
from repro.interp import interpreter
from repro.interp.primitives import OPERATORS
from repro.jit import codegen, specializer
from repro.lang import ast, parser, typechecker

#: Every expression node of the language.
EXPR_NODES = [
    "IntLit", "BoolLit", "StringLit", "CharLit", "UnitLit", "HostLit",
    "Var", "BinOp", "UnOp", "If", "Let", "Seq", "TupleExpr", "Proj",
    "Call", "Try", "Raise",
]


def _source_of(module) -> str:
    return inspect.getsource(module)


def test_ast_exposes_all_nodes():
    for name in EXPR_NODES:
        node_type = getattr(ast, name)
        assert issubclass(node_type, ast.Expr)


def test_interpreter_covers_every_node():
    source = _source_of(interpreter)
    for name in EXPR_NODES:
        assert f"ast.{name}" in source, \
            f"interpreter does not handle ast.{name}"


def test_closure_specializer_covers_every_node():
    source = _source_of(specializer)
    for name in EXPR_NODES:
        assert f"ast.{name}" in source, \
            f"closure specializer does not handle ast.{name}"


def test_source_codegen_covers_every_node():
    source = _source_of(codegen)
    for name in EXPR_NODES:
        assert f"ast.{name}" in source, \
            f"source codegen does not handle ast.{name}"


def test_children_covers_every_composite_node():
    """The analyses' traversal helper must know every composite node:
    ``ast.children`` reads its type-keyed table."""
    for name in EXPR_NODES:
        node_type = getattr(ast, name)
        import dataclasses

        fields = [f for f in dataclasses.fields(node_type)
                  if f.name not in ("pos", "ty")]
        has_expr_children = any(
            "Expr" in str(f.type) or f.name in ("bindings", "exprs",
                                                "elems", "args")
            for f in fields)
        if has_expr_children:
            assert node_type in ast._CHILDREN, \
                f"ast.children misses {name}"


def test_backend_registry():
    assert set(jit.BACKENDS) == {"interpreter", "closure", "source"}


def test_operator_table_is_the_grammar():
    """An operator the parser produces but the table lacks would fail
    only at run time, with ``unknown operator``."""
    binary = {op for op, _level in parser._BINARY.values()}
    assert binary == set(OPERATORS[2]) | {"andalso", "orelse"}
    assert set(OPERATORS[1]) == {"not", "-"}  # the prefixes
    assert set(OPERATORS) == {1, 2}


def test_every_operand_class_has_a_type_rule():
    for arity, ops in OPERATORS.items():
        for op, entry in ops.items():
            assert entry.operands in typechecker.OPERAND_CLASSES, (op, arity)
