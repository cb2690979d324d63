"""Guaranteed packet delivery (paper §2.1).

Assuming a reliable underlying network and the global-termination result,
a program guarantees delivery if

1. it cannot terminate on an unhandled exception (every primitive that
   may raise, every ``raise``, and every partial operator is enclosed in
   a matching handler);
2. every execution path forwards or delivers the packet — the program
   never "intentionally drops packets" (so any reachable ``drop`` call,
   and any path that completes without an emission, fails the check).

Both facts are computed by structural recursion, conservatively (no
path-feasibility reasoning is needed for soundness: an infeasible
non-delivering path only makes the analysis stricter).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import ast
from ..lang.errors import VerificationError
from ..lang.typechecker import ProgramInfo
from ..interp.primitives import PRIMITIVES

#: Operators that can raise at run time.
_PARTIAL_OPS = {"/": "DivideByZero", "mod": "DivideByZero"}


@dataclass
class DeliveryReport:
    channels_checked: int = 0
    exits_verified: int = 0


class DeliveryAnalysis:
    """Checks one program.  Entry point: :func:`check_delivery`."""

    def __init__(self, info: ProgramInfo):
        self._info = info
        self._fun_exits: dict[str, bool] = {}

    # -- escaping exceptions ----------------------------------------------------

    def escaping(self, expr: ast.Expr) -> set[str]:
        """Exception names that may propagate out of ``expr``."""
        kind = type(expr)
        if kind is ast.Raise:
            return {expr.exn}
        if kind is ast.Try:
            body = self.escaping(expr.body)
            caught = body if expr.exn == "_" else (body & {expr.exn})
            return (body - caught) | self.escaping(expr.handler)
        out: set[str] = set()
        if kind is ast.BinOp and expr.op in _PARTIAL_OPS:
            # A literal non-zero divisor cannot raise.
            divisor = expr.right
            if not (isinstance(divisor, ast.IntLit) and divisor.value != 0):
                out.add(_PARTIAL_OPS[expr.op])
        if kind is ast.Call:
            prim = PRIMITIVES.get(expr.func)
            if prim is not None:
                out.update(prim.may_raise)
            fun = self._info.funs.get(expr.func)
            if fun is not None:
                out.update(self.escaping(fun.decl.body))
        for child in ast.children(expr):
            out.update(self.escaping(child))
        return out

    # -- every-path-exits ----------------------------------------------------------

    def always_exits(self, expr: ast.Expr) -> bool:
        """True if every normal completion of ``expr`` performed at least
        one emission (OnRemote/OnNeighbor/deliver)."""
        kind = type(expr)
        if kind is ast.Call:
            if expr.func in ("OnRemote", "OnNeighbor", "deliver"):
                return True
            if expr.func in self._info.funs:
                if any(self.always_exits(a) for a in expr.args):
                    return True
                return self._fun_always_exits(expr.func)
            return any(self.always_exits(a) for a in expr.args)
        if kind is ast.If:
            return (self.always_exits(expr.cond)
                    or (self.always_exits(expr.then)
                        and self.always_exits(expr.orelse)))
        if kind is ast.Let:
            return (any(self.always_exits(b.value) for b in expr.bindings)
                    or self.always_exits(expr.body))
        if kind is ast.Seq:
            return any(self.always_exits(e) for e in expr.exprs)
        if kind is ast.TupleExpr:
            return any(self.always_exits(e) for e in expr.elems)
        if kind is ast.Proj:
            return self.always_exits(expr.tuple_expr)
        if kind is ast.UnOp:
            return self.always_exits(expr.operand)
        if kind is ast.BinOp:
            if expr.op in ("andalso", "orelse"):
                # The right operand may not run.
                return self.always_exits(expr.left)
            return (self.always_exits(expr.left)
                    or self.always_exits(expr.right))
        if kind is ast.Try:
            # An exception may preempt the body's emission, so both the
            # body and the handler must exit.
            return (self.always_exits(expr.body)
                    and self.always_exits(expr.handler))
        if kind is ast.Raise:
            return True  # vacuous: a raise never completes normally
        return False

    def _fun_always_exits(self, name: str) -> bool:
        if name not in self._fun_exits:
            self._fun_exits[name] = self.always_exits(
                self._info.funs[name].decl.body)
        return self._fun_exits[name]

    # -- drops -----------------------------------------------------------------------

    def drop_sites(self, expr: ast.Expr) -> list[ast.Call]:
        sites = [c for c in ast.calls_in(expr) if c.func == "drop"]
        for call in ast.calls_in(expr):
            fun = self._info.funs.get(call.func)
            if fun is not None:
                sites.extend(self.drop_sites(fun.decl.body))
        return sites


def check_delivery(info: ProgramInfo) -> DeliveryReport:
    """Raises :class:`VerificationError` unless every channel provably
    delivers/forwards every packet on every path."""
    analysis = DeliveryAnalysis(info)
    report = DeliveryReport()
    for decl in info.all_channels():
        report.channels_checked += 1

        escapes = analysis.escaping(decl.body)
        if decl.initstate is not None:
            escapes |= analysis.escaping(decl.initstate)
        if escapes:
            names = ", ".join(sorted(escapes))
            raise VerificationError(
                f"channel {decl.name!r} may terminate on unhandled "
                f"exception(s): {names}; delivery cannot be guaranteed",
                decl.pos, analysis="delivery")

        drops = analysis.drop_sites(decl.body)
        if drops:
            raise VerificationError(
                f"channel {decl.name!r} intentionally drops packets "
                f"(line {drops[0].pos.line}); delivery cannot be "
                f"guaranteed", decl.pos, analysis="delivery")

        if not analysis.always_exits(decl.body):
            raise VerificationError(
                f"channel {decl.name!r} has an execution path that "
                f"neither forwards nor delivers the packet", decl.pos,
                analysis="delivery")
        report.exits_verified += 1
    return report
