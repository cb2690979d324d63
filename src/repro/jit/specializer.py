"""The PLAN-P JIT, backend 1: closure specialization.

The paper derives its JIT from the interpreter by partial evaluation
(Tempo): specialising the interpreter to a fixed program removes the AST
dispatch, environment lookup by name, and primitive resolution, leaving
straight-line code.  The Python analogue of that transformation is
*closure generation* (staging): each interpreter case below returns a
Python closure with every static decision already taken —

* AST dispatch happens once, at compile time;
* variable references become indexed loads from a flat frame (the
  name→slot map is compile-time data);
* primitive and user-function bindings are resolved to direct callables;
* top-level ``val`` globals are evaluated at compile time and embedded as
  constants (run-time specialization: compilation happens at program
  download, as in the paper — per node when a ``val`` reads the node,
  once for every node when the globals are static; see
  :meth:`repro.jit.pipeline.ProgramCache.engine_artifact`).

The module mirrors :mod:`repro.interp.interpreter` case-for-case;
``tests/jit/test_coverage.py`` fails if a new AST node is handled by one
and not the other.
"""

from __future__ import annotations

from typing import Callable

from ..lang import ast
from ..lang.errors import PlanPRuntimeError
from ..lang.typechecker import ProgramInfo
from ..interp.context import ExecutionContext
from ..interp.interpreter import Interpreter, _sml_div
from ..interp.primitives import PRIMITIVES
from ..interp.values import UNIT, default_value, values_equal
from ..net.addresses import HostAddr

#: A compiled expression: (frame, ctx) -> value.
Compiled = Callable[[list, ExecutionContext], object]


class _Scope:
    """Compile-time map from names to frame slots or global constants."""

    def __init__(self):
        self.slots: dict[str, int] = {}
        self.constants: dict[str, object] = {}
        self.n_slots = 0

    def clone(self) -> "_Scope":
        copy = _Scope()
        copy.slots = dict(self.slots)
        copy.constants = dict(self.constants)
        copy.n_slots = self.n_slots
        return copy

    def add_slot(self, name: str) -> int:
        idx = self.n_slots
        self.slots[name] = idx
        self.constants.pop(name, None)
        self.n_slots += 1
        return idx


class ClosureEngine:
    """A program compiled to a tree of Python closures.

    Construction *is* code generation: an interpreter built against the
    given context evaluates the globals, then every function and
    channel body is specialized over them.  The engine keeps no node
    state, so one built over static globals serves every node.
    Construction time is what the Figure 3 benchmark reports for this
    backend.
    """

    backend_name = "closure"

    def __init__(self, info: ProgramInfo, ctx: ExecutionContext):
        self._info = info
        # The interpreter evaluates the globals, once, against ``ctx``;
        # they are embedded as constants (run-time specialization).
        self._globals = Interpreter(info, ctx).globals.bindings
        self._funs: dict[str, tuple[Callable, int, list[str]]] = {}
        self._channel_code: dict[int, tuple[Compiled, int]] = {}
        self._init_code: dict[int, tuple[Compiled, int]] = {}
        for name, fun in info.funs.items():
            self._compile_fun(name, fun.decl)
        for decl in info.all_channels():
            scope = self._base_scope()
            for param in decl.params:
                scope.add_slot(param.name)
            body = self._compile(decl.body, scope)
            self._channel_code[id(decl)] = (body, scope.n_slots)
            if decl.initstate is not None:
                iscope = self._base_scope()
                init = self._compile(decl.initstate, iscope)
                self._init_code[id(decl)] = (init, iscope.n_slots)

    # -- compilation ---------------------------------------------------------

    def _base_scope(self) -> _Scope:
        scope = _Scope()
        scope.constants.update(self._globals)
        return scope

    def _compile_fun(self, name: str, decl: ast.FunDecl) -> None:
        scope = self._base_scope()
        for param in decl.params:
            scope.add_slot(param.name)
        body = self._compile(decl.body, scope)
        self._funs[name] = (body, scope.n_slots,
                            [p.name for p in decl.params])

    # -- engine interface (same as Interpreter) --------------------------------

    def initial_channel_state(self, decl: ast.ChannelDecl,
                              ctx: ExecutionContext) -> object:
        entry = self._init_code.get(id(decl))
        if entry is None:
            return default_value(decl.channel_state_type)
        code, n_slots = entry
        return code([None] * n_slots, ctx)

    def run_channel(self, decl: ast.ChannelDecl, protocol_state: object,
                    channel_state: object, packet_value: tuple,
                    ctx: ExecutionContext) -> tuple[object, object]:
        code, n_slots = self._channel_code[id(decl)]
        frame = [None] * n_slots
        frame[0] = protocol_state
        frame[1] = channel_state
        frame[2] = packet_value
        result = code(frame, ctx)
        return result[0], result[1]  # type: ignore[index]

    def run_channel_batch(self, decl: ast.ChannelDecl,
                          protocol_state: object, channel_state: object,
                          batch, ctx: ExecutionContext) -> tuple[object,
                                                                 object]:
        """Tier-3 entry point: fold the specialized closure over a whole
        :class:`~repro.runtime.codec.PacketBatch` in one call.  AST
        dispatch, frame layout, and decode setup are all hoisted; rows
        share the batch's lazily-materialized columns.  Per-row failures
        follow the :class:`~repro.jit.batching.BatchFault` contract."""
        from .batching import BatchFault

        code, n_slots = self._channel_code[id(decl)]
        rows = batch.rows()
        i = 0
        try:
            for value in rows:
                ctx._row = i
                frame = [None] * n_slots
                frame[0] = protocol_state
                frame[1] = channel_state
                frame[2] = value
                result = code(frame, ctx)
                protocol_state = result[0]  # type: ignore[index]
                channel_state = result[1]  # type: ignore[index]
                i += 1
        except BatchFault:
            raise
        except Exception as err:
            raise BatchFault(i, protocol_state, channel_state, err) from err
        return protocol_state, channel_state

    # -- the specializer: one case per interpreter case --------------------------

    def _compile(self, expr: ast.Expr, scope: _Scope) -> Compiled:
        kind = type(expr)

        if kind in (ast.IntLit, ast.BoolLit, ast.StringLit, ast.CharLit):
            value = expr.value  # type: ignore[attr-defined]
            return lambda frame, ctx: value
        if kind is ast.UnitLit:
            return lambda frame, ctx: UNIT
        if kind is ast.HostLit:
            host = HostAddr.parse(expr.value)  # type: ignore[attr-defined]
            return lambda frame, ctx: host
        if kind is ast.Var:
            name = expr.name  # type: ignore[attr-defined]
            if name in scope.slots:
                idx = scope.slots[name]
                return lambda frame, ctx: frame[idx]
            # A global: its value is compile-time data (this is the
            # constant propagation partial evaluation buys).
            value = scope.constants[name]
            return lambda frame, ctx: value
        if kind is ast.BinOp:
            return self._compile_binop(expr, scope)  # type: ignore[arg-type]
        if kind is ast.UnOp:
            operand = self._compile(expr.operand, scope)  # type: ignore[attr-defined]
            if expr.op == "not":  # type: ignore[attr-defined]
                return lambda frame, ctx: not operand(frame, ctx)
            return lambda frame, ctx: -operand(frame, ctx)  # type: ignore[operator]
        if kind is ast.If:
            cond = self._compile(expr.cond, scope)  # type: ignore[attr-defined]
            then = self._compile(expr.then, scope)  # type: ignore[attr-defined]
            orelse = self._compile(expr.orelse, scope)  # type: ignore[attr-defined]
            return lambda frame, ctx: (then(frame, ctx) if cond(frame, ctx)
                                       else orelse(frame, ctx))
        if kind is ast.Let:
            return self._compile_let(expr, scope)  # type: ignore[arg-type]
        if kind is ast.Seq:
            parts = [self._compile(e, scope)
                     for e in expr.exprs]  # type: ignore[attr-defined]
            if len(parts) == 2:
                first, second = parts
                return lambda frame, ctx: (first(frame, ctx),
                                           second(frame, ctx))[1]

            def run_seq(frame: list, ctx: ExecutionContext) -> object:
                result: object = UNIT
                for part in parts:
                    result = part(frame, ctx)
                return result

            return run_seq
        if kind is ast.TupleExpr:
            return self._compile_tuple(expr, scope)  # type: ignore[arg-type]
        if kind is ast.Proj:
            target = self._compile(expr.tuple_expr, scope)  # type: ignore[attr-defined]
            idx = expr.index - 1  # type: ignore[attr-defined]
            return lambda frame, ctx: target(frame, ctx)[idx]  # type: ignore[index]
        if kind is ast.Call:
            return self._compile_call(expr, scope)  # type: ignore[arg-type]
        if kind is ast.Try:
            body = self._compile(expr.body, scope)  # type: ignore[attr-defined]
            handler = self._compile(expr.handler, scope)  # type: ignore[attr-defined]
            exn = expr.exn  # type: ignore[attr-defined]

            def run_try(frame: list, ctx: ExecutionContext) -> object:
                try:
                    return body(frame, ctx)
                except PlanPRuntimeError as err:
                    if exn in ("_", err.exception_name):
                        return handler(frame, ctx)
                    raise

            return run_try
        if kind is ast.Raise:
            exn = expr.exn  # type: ignore[attr-defined]
            pos = expr.pos

            def run_raise(frame: list, ctx: ExecutionContext) -> object:
                raise PlanPRuntimeError(f"exception {exn}", pos,
                                        exception_name=exn)

            return run_raise
        raise TypeError(f"specializer cannot compile {kind.__name__}")

    def _compile_binop(self, expr: ast.BinOp, scope: _Scope) -> Compiled:
        op = expr.op
        left = self._compile(expr.left, scope)
        right = self._compile(expr.right, scope)
        if op == "andalso":
            return lambda f, c: left(f, c) and right(f, c)
        if op == "orelse":
            return lambda f, c: left(f, c) or right(f, c)
        if op == "+":
            return lambda f, c: left(f, c) + right(f, c)  # type: ignore[operator]
        if op == "-":
            return lambda f, c: left(f, c) - right(f, c)  # type: ignore[operator]
        if op == "*":
            return lambda f, c: left(f, c) * right(f, c)  # type: ignore[operator]
        if op in ("/", "mod"):
            pos = expr.pos
            message = "division by zero" if op == "/" else "mod by zero"

            def run_div(f: list, c: ExecutionContext) -> object:
                # left first, as written: both sides may have effects
                dividend = left(f, c)
                divisor = right(f, c)
                if divisor == 0:
                    raise PlanPRuntimeError(
                        message, pos, exception_name="DivideByZero")
                if op == "/":
                    return _sml_div(dividend, divisor)  # type: ignore[arg-type]
                return dividend % divisor  # type: ignore[operator]

            return run_div
        if op == "^":
            return lambda f, c: left(f, c) + right(f, c)  # type: ignore[operator]
        if op == "=":
            return lambda f, c: values_equal(left(f, c), right(f, c))
        if op == "<>":
            return lambda f, c: not values_equal(left(f, c), right(f, c))
        if op == "<":
            return lambda f, c: left(f, c) < right(f, c)  # type: ignore[operator]
        if op == ">":
            return lambda f, c: left(f, c) > right(f, c)  # type: ignore[operator]
        if op == "<=":
            return lambda f, c: left(f, c) <= right(f, c)  # type: ignore[operator]
        if op == ">=":
            return lambda f, c: left(f, c) >= right(f, c)  # type: ignore[operator]
        if op == "::":
            def run_cons(f: list, c: ExecutionContext) -> object:
                head = left(f, c)  # head before list, as written
                return right(f, c).cons(head)  # type: ignore[union-attr]

            return run_cons
        raise TypeError(f"unknown operator {op!r}")

    def _compile_let(self, expr: ast.Let, scope: _Scope) -> Compiled:
        inner = scope.clone()
        steps: list[tuple[int, Compiled]] = []
        for binding in expr.bindings:
            code = self._compile(binding.value, inner)
            slot = inner.add_slot(binding.name)
            steps.append((slot, code))
        body = self._compile(expr.body, inner)
        # Propagate the enlarged frame size to the enclosing allocation.
        scope.n_slots = max(scope.n_slots, inner.n_slots)

        if len(steps) == 1:
            slot0, code0 = steps[0]

            def run_let1(frame: list, ctx: ExecutionContext) -> object:
                frame[slot0] = code0(frame, ctx)
                return body(frame, ctx)

            return run_let1

        def run_let(frame: list, ctx: ExecutionContext) -> object:
            for slot, code in steps:
                frame[slot] = code(frame, ctx)
            return body(frame, ctx)

        return run_let

    def _compile_tuple(self, expr: ast.TupleExpr, scope: _Scope) -> Compiled:
        parts = [self._compile(e, scope) for e in expr.elems]
        if len(parts) == 2:
            e1, e2 = parts
            return lambda f, c: (e1(f, c), e2(f, c))
        if len(parts) == 3:
            e1, e2, e3 = parts
            return lambda f, c: (e1(f, c), e2(f, c), e3(f, c))
        if len(parts) == 4:
            e1, e2, e3, e4 = parts
            return lambda f, c: (e1(f, c), e2(f, c), e3(f, c), e4(f, c))
        return lambda f, c: tuple(part(f, c) for part in parts)

    def _compile_call(self, expr: ast.Call, scope: _Scope) -> Compiled:
        name = expr.func
        if name == "OnRemote":
            chan = expr.args[0].name  # type: ignore[union-attr]
            packet = self._compile(expr.args[1], scope)

            def run_remote(f: list, c: ExecutionContext) -> object:
                c.emit_remote(chan, packet(f, c))  # type: ignore[arg-type]
                return UNIT

            return run_remote
        if name == "OnNeighbor":
            chan = expr.args[0].name  # type: ignore[union-attr]
            packet = self._compile(expr.args[1], scope)
            neighbor = self._compile(expr.args[2], scope)

            def run_neighbor(f: list, c: ExecutionContext) -> object:
                c.emit_neighbor(chan, packet(f, c),  # type: ignore[arg-type]
                                neighbor(f, c))  # type: ignore[arg-type]
                return UNIT

            return run_neighbor
        if name in self._funs:
            args = [self._compile(a, scope) for a in expr.args]
            # self._funs is read at call time so mutually-independent
            # compile order doesn't matter; resolution is still static.
            body, n_slots, _params = self._funs[name]
            n_args = len(args)

            def run_fun(f: list, c: ExecutionContext) -> object:
                frame = [None] * n_slots
                for i in range(n_args):
                    frame[i] = args[i](f, c)
                return body(frame, c)

            return run_fun
        impl = PRIMITIVES[name].impl
        args = [self._compile(a, scope) for a in expr.args]
        if len(args) == 0:
            return lambda f, c: impl(c, ())  # type: ignore[arg-type]
        if len(args) == 1:
            a1 = args[0]
            return lambda f, c: impl(c, (a1(f, c),))  # type: ignore[arg-type]
        if len(args) == 2:
            a1, a2 = args
            return lambda f, c: impl(c, (a1(f, c), a2(f, c)))  # type: ignore[arg-type]
        if len(args) == 3:
            a1, a2, a3 = args
            return lambda f, c: impl(
                c, (a1(f, c), a2(f, c), a3(f, c)))  # type: ignore[arg-type]
        return lambda f, c: impl(
            c, tuple(a(f, c) for a in args))  # type: ignore[arg-type]
