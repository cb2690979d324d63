"""Abstract syntax for PLAN-P programs.

Nodes are plain dataclasses.  The type checker annotates every expression
node's ``ty`` field in place; downstream passes (interpreter, specializer,
analyses) require a type-checked AST and assert on ``ty``.

The AST is deliberately small — the paper's thesis is that the language's
smallness is what makes the interpreter (≈8000 lines of C) and therefore
the derived JIT easy to evolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SourcePos
from .types import Type


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class of all expressions."""

    pos: SourcePos = field(default_factory=SourcePos, kw_only=True)
    ty: Type | None = field(default=None, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class CharLit(Expr):
    value: str = "\0"


@dataclass
class UnitLit(Expr):
    pass


@dataclass
class HostLit(Expr):
    """A dotted-quad IP address literal, e.g. ``131.254.60.81``."""

    value: str = "0.0.0.0"


@dataclass
class Var(Expr):
    name: str = ""


@dataclass
class BinOp(Expr):
    """A binary operator application.

    ``op`` is the surface operator text (``+``, ``=``, ``andalso``, ...).
    ``andalso``/``orelse`` are short-circuiting and are treated specially
    by the interpreter and all analyses.
    """

    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class UnOp(Expr):
    """``not e`` or unary minus."""

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class If(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    orelse: Expr = None  # type: ignore[assignment]


@dataclass
class ValBinding:
    """One ``val x : t = e`` binding inside a ``let``."""

    name: str
    declared: Type
    value: Expr
    pos: SourcePos = field(default_factory=SourcePos)


@dataclass
class Let(Expr):
    bindings: list[ValBinding] = field(default_factory=list)
    body: Expr = None  # type: ignore[assignment]


@dataclass
class Seq(Expr):
    """``(e1; e2; ...; en)`` — evaluate all, yield the last value."""

    exprs: list[Expr] = field(default_factory=list)


@dataclass
class TupleExpr(Expr):
    """``(e1, e2, ..., en)`` with n >= 2."""

    elems: list[Expr] = field(default_factory=list)


@dataclass
class Proj(Expr):
    """``#n e`` — 1-based tuple projection, as in ML."""

    index: int = 1
    tuple_expr: Expr = None  # type: ignore[assignment]


@dataclass
class Call(Expr):
    """Application of a primitive or a user-defined ``fun``.

    Calls to the emission primitives ``OnRemote`` and ``OnNeighbor`` are
    ordinary ``Call`` nodes; the analyses pattern-match on the callee name.
    """

    func: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class Try(Expr):
    """``try e handle Exn => e'`` — exception handling.

    ``exn`` is the exception constructor name matched by the handler;
    the distinguished name ``_`` matches any exception.
    """

    body: Expr = None  # type: ignore[assignment]
    exn: str = "_"
    handler: Expr = None  # type: ignore[assignment]


@dataclass
class Raise(Expr):
    """``raise Exn`` — raise a declared exception."""

    exn: str = ""


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    name: str
    declared: Type
    pos: SourcePos = field(default_factory=SourcePos)


@dataclass
class Decl:
    pos: SourcePos = field(default_factory=SourcePos, kw_only=True)


@dataclass
class ValDecl(Decl):
    """Top-level constant: ``val CmdA : int = 1``."""

    name: str = ""
    declared: Type = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class FunDecl(Decl):
    """A user-defined helper function.

    PLAN-P forbids recursion: a ``fun`` body may only call primitives and
    ``fun``s declared strictly earlier in the program.  The type checker
    enforces this, which gives local termination by construction.
    """

    name: str = ""
    params: list[Param] = field(default_factory=list)
    return_type: Type = None  # type: ignore[assignment]
    body: Expr = None  # type: ignore[assignment]


@dataclass
class ExceptionDecl(Decl):
    """``exception Name`` — declares a user exception constructor."""

    name: str = ""


@dataclass
class ChannelDecl(Decl):
    """A channel definition.

    ``channel name(ps : T1, ss : T2, p : T3) [initstate e] is body``

    The body must evaluate to ``(T1, T2)`` — the new protocol and channel
    states.  Channels named ``network`` are overloadable: several may be
    declared with distinct packet types, and incoming raw packets dispatch
    on the best-matching type (figure 4 of the paper).
    """

    name: str = ""
    params: list[Param] = field(default_factory=list)
    initstate: Expr | None = None
    body: Expr = None  # type: ignore[assignment]

    @property
    def protocol_state_type(self) -> Type:
        return self.params[0].declared

    @property
    def channel_state_type(self) -> Type:
        return self.params[1].declared

    @property
    def packet_type(self) -> Type:
        return self.params[2].declared


@dataclass
class Program:
    """A complete PLAN-P protocol: an ordered list of declarations."""

    decls: list[Decl] = field(default_factory=list)
    source_name: str = "<planp>"

    @property
    def channels(self) -> list[ChannelDecl]:
        return [d for d in self.decls if isinstance(d, ChannelDecl)]

    @property
    def functions(self) -> list[FunDecl]:
        return [d for d in self.decls if isinstance(d, FunDecl)]

    @property
    def vals(self) -> list[ValDecl]:
        return [d for d in self.decls if isinstance(d, ValDecl)]

    @property
    def exceptions(self) -> list[ExceptionDecl]:
        return [d for d in self.decls if isinstance(d, ExceptionDecl)]


# ---------------------------------------------------------------------------
# Traversal helpers shared by the analyses and the specializer
# ---------------------------------------------------------------------------


def children(expr: Expr) -> list[Expr]:
    """The direct sub-expressions of ``expr``, in evaluation order."""
    if isinstance(expr, BinOp):
        return [expr.left, expr.right]
    if isinstance(expr, UnOp):
        return [expr.operand]
    if isinstance(expr, If):
        return [expr.cond, expr.then, expr.orelse]
    if isinstance(expr, Let):
        return [b.value for b in expr.bindings] + [expr.body]
    if isinstance(expr, Seq):
        return list(expr.exprs)
    if isinstance(expr, TupleExpr):
        return list(expr.elems)
    if isinstance(expr, Proj):
        return [expr.tuple_expr]
    if isinstance(expr, Call):
        return list(expr.args)
    if isinstance(expr, Try):
        return [expr.body, expr.handler]
    return []


def walk(expr: Expr):
    """Yield ``expr`` and every descendant expression, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def calls_in(expr: Expr) -> list[Call]:
    """All ``Call`` nodes under ``expr``."""
    return [n for n in walk(expr) if isinstance(n, Call)]
