"""Guaranteed packet delivery (paper §2.1).

Assuming a reliable underlying network and the global-termination result,
a program guarantees delivery if

1. it cannot terminate on an unhandled exception (every primitive that
   may raise, every ``raise``, and every partial operator is enclosed in
   a matching handler) — top-level ``val`` initialisers included: they
   run at install, and one that raises refuses the program;
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
from ..interp.primitives import OPERATORS, PRIMITIVES


@dataclass
class DeliveryReport:
    channels_checked: int = 0
    exits_verified: int = 0


class DeliveryAnalysis:
    """Checks one program.  Entry point: :func:`check_delivery`.

    Each question about a ``fun`` body is answered once and memoized by
    function name: a callee's answer does not depend on its call site,
    and re-deriving it per call would make the analysis exponential in
    the depth of a call chain (``f_i(x) = f_{i-1}(x) + f_{i-1}(x)``).
    """

    def __init__(self, info: ProgramInfo):
        self._info = info
        self._fun_exits: dict[str, bool] = {}
        self._fun_scans: dict[str, tuple[set[str], list[ast.Call]]] = {}

    # -- escaping exceptions and drops --------------------------------------------

    def scan(self, expr: ast.Expr) -> tuple[set[str], list[ast.Call]]:
        """One walk of ``expr`` for two answers: the exception names that
        may propagate out of it, and the ``drop`` calls it may reach,
        each once — its own in pre-order, then those of the functions it
        calls, in call order."""
        drops: dict[int, ast.Call] = {}
        callees: list[str] = []
        escapes = self._escaping(expr, drops, callees)
        for name in callees:
            for call in self._fun_scan(name)[1]:
                drops.setdefault(id(call), call)
        return escapes, list(drops.values())

    def _escaping(self, expr: ast.Expr, drops: dict[int, ast.Call],
                  callees: list[str]) -> set[str]:
        """What may escape ``expr``, noting its ``drop`` calls and the
        functions it calls in ``drops`` and ``callees`` on the way; the
        body of a ``try`` is the one nested walk."""
        out: set[str] = set()
        funs = self._info.funs
        stack = [expr]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is ast.Raise:
                out.add(node.exn)
                continue
            if kind is ast.Try:
                body = self._escaping(node.body, drops, callees)
                if node.exn != "_":
                    out |= body - {node.exn}
                stack.append(node.handler)
                continue
            if kind is ast.BinOp:
                entry = OPERATORS[2].get(node.op)
                # A literal non-zero divisor cannot raise.
                divisor = node.right
                if (entry is not None and entry.raises is not None
                        and not (isinstance(divisor, ast.IntLit)
                                 and divisor.value != 0)):
                    out.add(entry.raises[0])
            elif kind is ast.Call:
                func = node.func
                prim = PRIMITIVES.get(func)
                if prim is not None:
                    out.update(prim.may_raise)
                if func == "drop":
                    drops[id(node)] = node
                elif func in funs:
                    callees.append(func)
                    out |= self._fun_scan(func)[0]
            stack += ast.children(node)
        return out

    def _fun_scan(self, name: str) -> tuple[set[str], list[ast.Call]]:
        if name not in self._fun_scans:
            self._fun_scans[name] = self.scan(self._info.funs[name].decl.body)
        return self._fun_scans[name]

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


def check_delivery(info: ProgramInfo) -> DeliveryReport:
    """Raises :class:`VerificationError` unless the program's globals
    provably install and every channel provably delivers/forwards every
    packet on every path."""
    analysis = DeliveryAnalysis(info)
    report = DeliveryReport()
    for val in info.program.vals:
        escapes = analysis.scan(val.value)[0]
        if escapes:
            raise VerificationError(
                f"val {val.name!r} (line {val.pos.line}) may raise "
                f"unhandled exception(s): {', '.join(sorted(escapes))}; "
                f"the program cannot install", val.pos,
                analysis="delivery")
    for decl in info.all_channels():
        report.channels_checked += 1

        escapes, drops = analysis.scan(decl.body)
        if decl.initstate is not None:
            escapes |= analysis.scan(decl.initstate)[0]
        if escapes:
            names = ", ".join(sorted(escapes))
            raise VerificationError(
                f"channel {decl.name!r} may terminate on unhandled "
                f"exception(s): {names}; delivery cannot be guaranteed",
                decl.pos, analysis="delivery")

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
