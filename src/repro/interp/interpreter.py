"""The portable PLAN-P interpreter.

This is the reproduction's analogue of the paper's ≈8000-line C
interpreter: a straightforward environment-passing AST walker.  The JIT
(:mod:`repro.jit.specializer`) is *derived from this module* — it has one
specialisation case per evaluation case below, and a test
(`tests/jit/test_coverage.py`) asserts the two stay in sync, reproducing
the paper's "evolve the interpreter, regenerate the specializer" claim.
Operators are not cases: each is defined once, in
:data:`~repro.interp.primitives.OPERATORS`, which every backend reads
(`test_coverage.py` also holds that table to the parser).

New functionality is debugged here first (paper §1: "new functionalities
can be tested within the interpreter, as long as good performance is not
required").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..lang import ast
from ..lang.errors import PlanPRuntimeError
from .context import ExecutionContext

if TYPE_CHECKING:  # avoid a cycle: typechecker imports the primitives
    from ..lang.typechecker import ProgramInfo
from .env import Env
from .primitives import OPERATORS, PRIMITIVES
from .values import UNIT


class Interpreter:
    """Evaluates channel invocations of a type-checked program.

    Construction evaluates the program's top-level ``val``s, once, in
    declaration order, against ``ctx`` — the context of the node the
    program is installed on, or any context when the globals are static
    and the engine serves every node — into :attr:`globals`, the
    environment every ``fun`` and channel body reads.  A ``val``
    initialiser may call a ``fun`` declared before it; one that raises
    refuses the program.  This is the one place ``val``s are evaluated: the JITs
    build an interpreter and embed its globals as constants.
    """

    def __init__(self, info: ProgramInfo, ctx: ExecutionContext):
        self._info = info
        # Bound as they are evaluated: a fun called by a later val reads
        # this same (partial) environment.
        self.globals = env = Env()
        for decl in info.program.vals:
            env.bind(decl.name, self.eval(decl.value, env, ctx))

    # -- program-level evaluation ------------------------------------------------

    def initial_channel_state(self, decl: ast.ChannelDecl,
                              ctx: ExecutionContext) -> object:
        """Evaluate ``initstate`` (or the type's zero value)."""
        from .values import default_value

        if decl.initstate is not None:
            return self.eval(decl.initstate, self.globals, ctx)
        return default_value(decl.channel_state_type)

    def run_channel(self, decl: ast.ChannelDecl, protocol_state: object,
                    channel_state: object, packet_value: tuple,
                    ctx: ExecutionContext) -> tuple[object, object]:
        """Process one packet: returns the new ``(ps, ss)`` pair."""
        env = self.globals.child()
        env.bind(decl.params[0].name, protocol_state)
        env.bind(decl.params[1].name, channel_state)
        env.bind(decl.params[2].name, packet_value)
        result = self.eval(decl.body, env, ctx)
        if not isinstance(result, tuple) or len(result) != 2:
            raise PlanPRuntimeError(
                f"channel {decl.name} returned {result!r}, expected a "
                f"(protocol state, channel state) pair", decl.pos)
        return result[0], result[1]

    # -- expression evaluation -----------------------------------------------------
    #
    # One case per AST node.  The specializer mirrors this structure.

    def eval(self, expr: ast.Expr, env: Env, ctx: ExecutionContext) -> object:
        kind = type(expr)

        if kind is ast.IntLit:
            return expr.value
        if kind is ast.BoolLit:
            return expr.value
        if kind is ast.StringLit:
            return expr.value
        if kind is ast.CharLit:
            return expr.value
        if kind is ast.UnitLit:
            return UNIT
        if kind is ast.HostLit:
            from ..net.addresses import HostAddr

            return HostAddr.parse(expr.value)
        if kind is ast.Var:
            return env.lookup(expr.name)
        if kind is ast.BinOp:
            return self._eval_binop(expr, env, ctx)
        if kind is ast.UnOp:
            return OPERATORS[1][expr.op].value(
                self.eval(expr.operand, env, ctx))
        if kind is ast.If:
            if self.eval(expr.cond, env, ctx):
                return self.eval(expr.then, env, ctx)
            return self.eval(expr.orelse, env, ctx)
        if kind is ast.Let:
            inner = env.child()
            for binding in expr.bindings:
                inner.bind(binding.name, self.eval(binding.value, inner, ctx))
            return self.eval(expr.body, inner, ctx)
        if kind is ast.Seq:
            result: object = UNIT
            for e in expr.exprs:
                result = self.eval(e, env, ctx)
            return result
        if kind is ast.TupleExpr:
            return tuple(self.eval(e, env, ctx) for e in expr.elems)
        if kind is ast.Proj:
            value = self.eval(expr.tuple_expr, env, ctx)
            return value[expr.index - 1]  # type: ignore[index]
        if kind is ast.Call:
            return self._eval_call(expr, env, ctx)
        if kind is ast.Try:
            try:
                return self.eval(expr.body, env, ctx)
            except PlanPRuntimeError as err:
                if expr.exn in ("_", err.exception_name):
                    return self.eval(expr.handler, env, ctx)
                raise
        if kind is ast.Raise:
            raise PlanPRuntimeError(f"exception {expr.exn}", expr.pos,
                                    exception_name=expr.exn)
        raise TypeError(f"interpreter cannot evaluate {kind.__name__}")

    def _eval_binop(self, expr: ast.BinOp, env: Env,
                    ctx: ExecutionContext) -> object:
        op = expr.op
        # Short-circuit operators evaluate the right operand lazily.
        if op == "andalso":
            return (self.eval(expr.left, env, ctx)
                    and self.eval(expr.right, env, ctx))
        if op == "orelse":
            return (self.eval(expr.left, env, ctx)
                    or self.eval(expr.right, env, ctx))
        entry = OPERATORS[2][op]
        left = self.eval(expr.left, env, ctx)
        right = self.eval(expr.right, env, ctx)
        if entry.raises is not None and right == 0:
            exn, message = entry.raises
            raise PlanPRuntimeError(message, expr.pos, exception_name=exn)
        return entry.value(left, right)

    def _eval_call(self, expr: ast.Call, env: Env,
                   ctx: ExecutionContext) -> object:
        name = expr.func
        if name == "OnRemote":
            packet = self.eval(expr.args[1], env, ctx)
            ctx.emit_remote(expr.args[0].name,  # type: ignore[union-attr]
                            packet)  # type: ignore[arg-type]
            return UNIT
        if name == "OnNeighbor":
            packet = self.eval(expr.args[1], env, ctx)
            neighbor = self.eval(expr.args[2], env, ctx)
            ctx.emit_neighbor(expr.args[0].name,  # type: ignore[union-attr]
                              packet, neighbor)  # type: ignore[arg-type]
            return UNIT
        if name in self._info.funs:
            info = self._info.funs[name]
            args = [self.eval(a, env, ctx) for a in expr.args]
            call_env = self.globals.child()
            for param, value in zip(info.decl.params, args):
                call_env.bind(param.name, value)
            return self.eval(info.decl.body, call_env, ctx)
        prim = PRIMITIVES[name]
        args = [self.eval(a, env, ctx) for a in expr.args]
        return prim.impl(ctx, args)
