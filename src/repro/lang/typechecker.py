"""Type checker for PLAN-P.

Beyond ordinary monomorphic checking, this pass enforces the language
restrictions that make the paper's safety analyses possible:

* **No recursion** — a ``fun`` body may only call primitives and functions
  declared strictly earlier; channels cannot be called as functions.
  With no loop construct in the grammar, this yields *local termination
  by construction* (paper §2.1).
* **Channel discipline** — every channel takes (protocol state, channel
  state, packet) and returns the ``(ps, ss)`` pair; ``initstate`` matches
  the channel-state type.
* **Overloaded channels** — multiple ``network`` channels are allowed if
  their packet types differ (paper §2.3, figure 4); other channel names
  must be unique.
* **Emission syntax** — ``OnRemote(chan, pkt)`` / ``OnNeighbor(chan, pkt,
  host)`` require ``chan`` to name a channel whose packet type admits
  ``pkt``.

The checker annotates every expression's ``ty`` in place and returns a
:class:`ProgramInfo` used by the interpreter, the JIT and the analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from . import types as T
from .errors import SourcePos, TypeCheckError
from ..interp.primitives import BUILTIN_EXCEPTIONS, EMISSION_PRIMS, PRIMITIVES

_ARITH_OPS = ("+", "-", "*", "/", "mod")
_CMP_OPS = ("<", ">", "<=", ">=")
_EQ_OPS = ("=", "<>")
_BOOL_OPS = ("andalso", "orelse")
_ORDERED_TYPES = (T.INT, T.STRING, T.CHAR)


@dataclass
class FunInfo:
    decl: ast.FunDecl
    param_types: list[T.Type]
    return_type: T.Type


@dataclass
class ProgramInfo:
    """Summary of a checked program, consumed by every downstream pass."""

    program: ast.Program
    vals: dict[str, T.Type] = field(default_factory=dict)
    funs: dict[str, FunInfo] = field(default_factory=dict)
    exceptions: set[str] = field(default_factory=set)
    #: channel name -> declarations (several for overloaded ``network``)
    channels: dict[str, list[ast.ChannelDecl]] = field(default_factory=dict)
    #: are the top-level ``val``s *static* — every initialiser built from
    #: literals, operators and earlier ``val``s, with no call to a
    #: primitive or ``fun``?  Then they read nothing of a node (no
    #: ``thisHost()``, ``random``, ``mkTable``) and hold nothing mutable,
    #: so they evaluate the same everywhere and one engine serves every
    #: node (:meth:`repro.jit.pipeline.ProgramCache.engine_artifact`).
    static_globals: bool = True

    def channel_overloads(self, name: str) -> list[ast.ChannelDecl]:
        return self.channels.get(name, [])

    def all_channels(self) -> list[ast.ChannelDecl]:
        return [c for decls in self.channels.values() for c in decls]


def _join(a: T.Type, b: T.Type, pos: SourcePos, what: str) -> T.Type:
    """The common type of two branches; prefers the more specific side."""
    if not T.compatible(a, b):
        raise TypeCheckError(f"{what} have incompatible types {a} and {b}",
                             pos)
    if isinstance(a, T.AnyType):
        return b
    if isinstance(b, T.AnyType):
        return a
    if isinstance(a, T.TupleType) and isinstance(b, T.TupleType):
        return T.TupleType(tuple(
            _join(x, y, pos, what) for x, y in zip(a.elems, b.elems)))
    if isinstance(a, T.HashTableType) and isinstance(b, T.HashTableType):
        return T.HashTableType(_join(a.value, b.value, pos, what))
    if isinstance(a, T.ListType) and isinstance(b, T.ListType):
        return T.ListType(_join(a.elem, b.elem, pos, what))
    return a


class _Scope:
    """A lexical scope chain of value bindings."""

    def __init__(self, parent: "_Scope | None" = None):
        self._parent = parent
        self._bindings: dict[str, T.Type] = {}

    def bind(self, name: str, ty: T.Type) -> None:
        self._bindings[name] = ty

    def lookup(self, name: str) -> T.Type | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope._bindings:
                return scope._bindings[name]
            scope = scope._parent
        return None


class TypeChecker:
    """Checks one program.  Use :func:`typecheck` as the entry point."""

    def __init__(self, program: ast.Program):
        self._program = program
        self._info = ProgramInfo(program)
        #: functions visible so far (enforces declaration-order calls)
        self._visible_funs: dict[str, FunInfo] = {}
        #: calls checked so far: a ``val`` whose check adds one is not
        #: static (:attr:`ProgramInfo.static_globals`)
        self._calls = 0

    # -- program ----------------------------------------------------------------

    def check(self) -> ProgramInfo:
        self._collect_channels()
        globals_scope = _Scope()
        for decl in self._program.decls:
            if isinstance(decl, ast.ValDecl):
                self._check_val(decl, globals_scope)
            elif isinstance(decl, ast.ExceptionDecl):
                self._check_exception(decl)
            elif isinstance(decl, ast.FunDecl):
                self._check_fun(decl, globals_scope)
            elif isinstance(decl, ast.ChannelDecl):
                self._check_channel(decl, globals_scope)
        if not self._info.channels:
            raise TypeCheckError(
                "a PLAN-P protocol must define at least one channel",
                SourcePos())
        # The protocol state is shared between *all* channels (paper §2),
        # so every channel must declare the same protocol state type.
        all_channels = self._info.all_channels()
        first = all_channels[0]
        for chan in all_channels[1:]:
            if chan.protocol_state_type != first.protocol_state_type:
                raise TypeCheckError(
                    f"channel {chan.name!r} declares protocol state "
                    f"{chan.protocol_state_type} but channel "
                    f"{first.name!r} declares "
                    f"{first.protocol_state_type}; the protocol state is "
                    f"shared and must have one type", chan.pos)
        return self._info

    def _collect_channels(self) -> None:
        """Pre-pass: channel names/types must be known before bodies are
        checked, because any channel may OnRemote to any other."""
        for decl in self._program.channels:
            if len(decl.params) != 3:
                raise TypeCheckError(
                    f"channel {decl.name!r} must have 3 parameters",
                    decl.pos)
            overloads = self._info.channels.setdefault(decl.name, [])
            if decl.name == "network":
                if not T.is_packet_type(decl.packet_type):
                    raise TypeCheckError(
                        f"network channel packet type {decl.packet_type} "
                        f"is not a valid packet type (ip [* transport] "
                        f"* payload views)", decl.pos)
                if any(o.packet_type == decl.packet_type for o in overloads):
                    raise TypeCheckError(
                        "duplicate network channel with packet type "
                        f"{decl.packet_type}", decl.pos)
            elif overloads:
                raise TypeCheckError(
                    f"duplicate channel name {decl.name!r} (only "
                    f"'network' channels may be overloaded)", decl.pos)
            if overloads:
                first = overloads[0]
                if (decl.protocol_state_type != first.protocol_state_type):
                    raise TypeCheckError(
                        "overloaded network channels must share the "
                        "protocol state type", decl.pos)
            overloads.append(decl)

    # -- declarations -------------------------------------------------------------

    def _check_val(self, decl: ast.ValDecl, scope: _Scope) -> None:
        if decl.name in self._info.vals:
            raise TypeCheckError(f"duplicate val {decl.name!r}", decl.pos)
        calls = self._calls
        actual = self._expr(decl.value, scope)
        if not T.compatible(decl.declared, actual):
            raise TypeCheckError(
                f"val {decl.name}: declared {decl.declared} but "
                f"initialiser has type {actual}", decl.pos)
        scope.bind(decl.name, decl.declared)
        self._info.vals[decl.name] = decl.declared
        if self._calls != calls:
            self._info.static_globals = False

    def _check_exception(self, decl: ast.ExceptionDecl) -> None:
        if decl.name in self._info.exceptions:
            raise TypeCheckError(f"duplicate exception {decl.name!r}",
                                 decl.pos)
        if decl.name in BUILTIN_EXCEPTIONS:
            raise TypeCheckError(
                f"exception {decl.name!r} shadows a built-in exception",
                decl.pos)
        self._info.exceptions.add(decl.name)

    def _check_fun(self, decl: ast.FunDecl, globals_scope: _Scope) -> None:
        if decl.name in self._visible_funs or decl.name in PRIMITIVES:
            raise TypeCheckError(
                f"function {decl.name!r} redefines an existing function "
                f"or primitive", decl.pos)
        scope = _Scope(globals_scope)
        seen: set[str] = set()
        for p in decl.params:
            if p.name in seen:
                raise TypeCheckError(
                    f"duplicate parameter {p.name!r}", p.pos)
            seen.add(p.name)
            scope.bind(p.name, p.declared)
        # The body is checked before the function becomes visible, so a
        # recursive call is reported as an unknown function: this is the
        # no-recursion restriction that gives local termination.
        body_type = self._expr(decl.body, scope)
        if not T.compatible(decl.return_type, body_type):
            raise TypeCheckError(
                f"function {decl.name}: body has type {body_type}, "
                f"declared {decl.return_type}", decl.pos)
        info = FunInfo(decl, [p.declared for p in decl.params],
                       decl.return_type)
        self._visible_funs[decl.name] = info
        self._info.funs[decl.name] = info

    def _check_channel(self, decl: ast.ChannelDecl,
                       globals_scope: _Scope) -> None:
        scope = _Scope(globals_scope)
        seen: set[str] = set()
        for p in decl.params:
            if p.name in seen:
                raise TypeCheckError(f"duplicate parameter {p.name!r}",
                                     p.pos)
            seen.add(p.name)
            scope.bind(p.name, p.declared)
        if decl.initstate is not None:
            init_type = self._expr(decl.initstate, globals_scope)
            if not T.compatible(decl.channel_state_type, init_type):
                raise TypeCheckError(
                    f"initstate has type {init_type}, channel state is "
                    f"{decl.channel_state_type}", decl.pos)
        expected = T.state_pair(decl.protocol_state_type,
                                decl.channel_state_type)
        body_type = self._expr(decl.body, scope)
        if not T.compatible(expected, body_type):
            raise TypeCheckError(
                f"channel {decl.name}: body has type {body_type}, must "
                f"return the state pair {expected}", decl.pos)

    # -- expressions ----------------------------------------------------------------

    def _expr(self, expr: ast.Expr, scope: _Scope) -> T.Type:
        ty = _RULES[type(expr)](self, expr, scope)
        expr.ty = ty
        return ty

    def _expr_IntLit(self, expr: ast.IntLit, scope: _Scope) -> T.Type:
        return T.INT

    def _expr_BoolLit(self, expr: ast.BoolLit, scope: _Scope) -> T.Type:
        return T.BOOL

    def _expr_StringLit(self, expr: ast.StringLit, scope: _Scope) -> T.Type:
        return T.STRING

    def _expr_CharLit(self, expr: ast.CharLit, scope: _Scope) -> T.Type:
        return T.CHAR

    def _expr_UnitLit(self, expr: ast.UnitLit, scope: _Scope) -> T.Type:
        return T.UNIT

    def _expr_HostLit(self, expr: ast.HostLit, scope: _Scope) -> T.Type:
        return T.HOST

    def _expr_Var(self, expr: ast.Var, scope: _Scope) -> T.Type:
        ty = scope.lookup(expr.name)
        if ty is None:
            if expr.name in self._info.channels:
                raise TypeCheckError(
                    f"channel {expr.name!r} may only be referenced as the "
                    f"first argument of OnRemote/OnNeighbor", expr.pos)
            raise TypeCheckError(f"unbound variable {expr.name!r}", expr.pos)
        return ty

    def _expr_BinOp(self, expr: ast.BinOp, scope: _Scope) -> T.Type:
        lt = self._expr(expr.left, scope)
        rt = self._expr(expr.right, scope)
        op = expr.op
        if op in _ARITH_OPS:
            if not (T.compatible(T.INT, lt) and T.compatible(T.INT, rt)):
                raise TypeCheckError(
                    f"operator {op!r} needs int operands, got {lt} and {rt}",
                    expr.pos)
            return T.INT
        if op == "^":
            if not (T.compatible(T.STRING, lt)
                    and T.compatible(T.STRING, rt)):
                raise TypeCheckError(
                    f"operator '^' needs string operands, got {lt} and {rt}",
                    expr.pos)
            return T.STRING
        if op in _BOOL_OPS:
            if not (T.compatible(T.BOOL, lt) and T.compatible(T.BOOL, rt)):
                raise TypeCheckError(
                    f"operator {op!r} needs bool operands, got {lt} and {rt}",
                    expr.pos)
            return T.BOOL
        if op in _EQ_OPS:
            joined = _join(lt, rt, expr.pos, f"operands of {op!r}")
            if not T.is_equality_type(joined):
                raise TypeCheckError(
                    f"type {joined} does not admit equality", expr.pos)
            return T.BOOL
        if op in _CMP_OPS:
            joined = _join(lt, rt, expr.pos, f"operands of {op!r}")
            if joined not in _ORDERED_TYPES and not isinstance(
                    joined, T.AnyType):
                raise TypeCheckError(
                    f"operator {op!r} needs int, string or char operands, "
                    f"got {joined}", expr.pos)
            return T.BOOL
        if op == "::":
            if not isinstance(rt, T.ListType):
                raise TypeCheckError(
                    f"'::' needs a list right operand, got {rt}", expr.pos)
            elem = _join(lt, rt.elem, expr.pos, "cons operands")
            return T.ListType(elem)
        raise TypeCheckError(f"unknown operator {op!r}", expr.pos)

    def _expr_UnOp(self, expr: ast.UnOp, scope: _Scope) -> T.Type:
        t = self._expr(expr.operand, scope)
        if expr.op == "not":
            if not T.compatible(T.BOOL, t):
                raise TypeCheckError(f"'not' needs a bool, got {t}",
                                     expr.pos)
            return T.BOOL
        if expr.op == "-":
            if not T.compatible(T.INT, t):
                raise TypeCheckError(f"unary '-' needs an int, got {t}",
                                     expr.pos)
            return T.INT
        raise TypeCheckError(f"unknown unary operator {expr.op!r}", expr.pos)

    def _expr_If(self, expr: ast.If, scope: _Scope) -> T.Type:
        cond = self._expr(expr.cond, scope)
        if not T.compatible(T.BOOL, cond):
            raise TypeCheckError(f"if condition must be bool, got {cond}",
                                 expr.pos)
        then_t = self._expr(expr.then, scope)
        else_t = self._expr(expr.orelse, scope)
        return _join(then_t, else_t, expr.pos, "if branches")

    def _expr_Let(self, expr: ast.Let, scope: _Scope) -> T.Type:
        inner = _Scope(scope)
        for binding in expr.bindings:
            actual = self._expr(binding.value, inner)
            if not T.compatible(binding.declared, actual):
                raise TypeCheckError(
                    f"val {binding.name}: declared {binding.declared} but "
                    f"initialiser has type {actual}", binding.pos)
            inner.bind(binding.name, binding.declared)
        return self._expr(expr.body, inner)

    def _expr_Seq(self, expr: ast.Seq, scope: _Scope) -> T.Type:
        for e in expr.exprs[:-1]:
            t = self._expr(e, scope)
            if not T.compatible(T.UNIT, t):
                raise TypeCheckError(
                    f"non-final expression in a sequence must have type "
                    f"unit, got {t}", e.pos)
        return self._expr(expr.exprs[-1], scope)

    def _expr_TupleExpr(self, expr: ast.TupleExpr, scope: _Scope) -> T.Type:
        return T.TupleType(tuple([self._expr(e, scope)
                                  for e in expr.elems]))

    def _expr_Proj(self, expr: ast.Proj, scope: _Scope) -> T.Type:
        t = self._expr(expr.tuple_expr, scope)
        if isinstance(t, T.AnyType):
            return T.ANY
        if not isinstance(t, T.TupleType):
            raise TypeCheckError(
                f"projection #{expr.index} applied to non-tuple type {t}",
                expr.pos)
        if not 1 <= expr.index <= len(t.elems):
            raise TypeCheckError(
                f"projection #{expr.index} out of range for {t}", expr.pos)
        return t.elems[expr.index - 1]

    def _expr_Call(self, expr: ast.Call, scope: _Scope) -> T.Type:
        self._calls += 1
        if expr.func in EMISSION_PRIMS:
            return self._check_emission(expr, scope)
        if expr.func in self._visible_funs:
            info = self._visible_funs[expr.func]
            if len(expr.args) != len(info.param_types):
                raise TypeCheckError(
                    f"{expr.func} expects {len(info.param_types)} "
                    f"argument(s), got {len(expr.args)}", expr.pos)
            for i, (arg, want) in enumerate(
                    zip(expr.args, info.param_types), start=1):
                got = self._expr(arg, scope)
                if not T.compatible(want, got):
                    raise TypeCheckError(
                        f"argument {i} of {expr.func} has type {got}, "
                        f"expected {want}", arg.pos)
            return info.return_type
        if expr.func in PRIMITIVES:
            arg_types = [self._expr(a, scope) for a in expr.args]
            prim = PRIMITIVES[expr.func]
            try:
                return prim.type_rule(arg_types, expr.pos)
            except TypeCheckError as err:
                raise TypeCheckError(f"in call to {expr.func}: "
                                     f"{err.message}", expr.pos)
        if expr.func in self._info.funs:
            # Declared later in the file: calling it would admit recursion.
            raise TypeCheckError(
                f"function {expr.func!r} is used before its declaration "
                f"(forward and recursive calls are forbidden)", expr.pos)
        raise TypeCheckError(f"unknown function {expr.func!r}", expr.pos)

    def _check_emission(self, expr: ast.Call, scope: _Scope) -> T.Type:
        want_args = 2 if expr.func == "OnRemote" else 3
        if len(expr.args) != want_args:
            raise TypeCheckError(
                f"{expr.func} expects {want_args} arguments "
                f"(channel, packet{', neighbor' if want_args == 3 else ''})",
                expr.pos)
        chan_arg = expr.args[0]
        if not isinstance(chan_arg, ast.Var):
            raise TypeCheckError(
                f"the first argument of {expr.func} must be a channel name",
                expr.pos)
        overloads = self._info.channel_overloads(chan_arg.name)
        if not overloads:
            raise TypeCheckError(
                f"{expr.func} target {chan_arg.name!r} is not a channel",
                chan_arg.pos)
        chan_arg.ty = T.UNIT  # channel names carry no value
        pkt_type = self._expr(expr.args[1], scope)
        if not any(T.compatible(o.packet_type, pkt_type)
                   for o in overloads):
            accepted = ", ".join(str(o.packet_type) for o in overloads)
            raise TypeCheckError(
                f"packet type {pkt_type} does not match channel "
                f"{chan_arg.name!r} (accepts: {accepted})", expr.args[1].pos)
        if expr.func == "OnNeighbor":
            host_t = self._expr(expr.args[2], scope)
            if not T.compatible(T.HOST, host_t):
                raise TypeCheckError(
                    f"OnNeighbor neighbor argument must be host, "
                    f"got {host_t}", expr.args[2].pos)
        return T.UNIT

    def _expr_Try(self, expr: ast.Try, scope: _Scope) -> T.Type:
        body_t = self._expr(expr.body, scope)
        if (expr.exn != "_" and expr.exn not in self._info.exceptions
                and expr.exn not in BUILTIN_EXCEPTIONS):
            raise TypeCheckError(
                f"handler matches unknown exception {expr.exn!r}", expr.pos)
        handler_t = self._expr(expr.handler, scope)
        return _join(body_t, handler_t, expr.pos, "try/handle branches")

    def _expr_Raise(self, expr: ast.Raise, scope: _Scope) -> T.Type:
        if (expr.exn not in self._info.exceptions
                and expr.exn not in BUILTIN_EXCEPTIONS):
            raise TypeCheckError(f"unknown exception {expr.exn!r}", expr.pos)
        return T.ANY  # bottom: a raise fits in any context


#: ``TypeChecker._expr_<Node>`` by node type.
_RULES = {getattr(ast, name.removeprefix("_expr_")): rule
          for name, rule in vars(TypeChecker).items()
          if name.startswith("_expr_")}


def typecheck(program: ast.Program) -> ProgramInfo:
    """Type check ``program`` in place and return its summary."""
    return TypeChecker(program).check()
