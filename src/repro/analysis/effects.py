"""The effects of a body: one structural walk that every analysis without
path enumeration reads (paper §2.1).

A body is a channel's, an ``initstate``, a top-level ``val``
initialiser or a ``fun``'s.  Delivery reads ``escapes``, ``drops`` and
``exits``; the wire summary ``emits`` and ``delivers``; local
termination ``fun_calls``.  The walk never raises, so the wire summary
that every load computes (``verify=False`` too) stays total, and it
answers for programs whose path enumeration is refused:
:mod:`repro.analysis.paths` is the one path-sensitive walk.
"""

from __future__ import annotations

from typing import NamedTuple

from ..lang import ast
from ..lang.typechecker import ProgramInfo
from ..interp.primitives import OPERATORS, PRIMITIVES


class Effects(NamedTuple):
    #: the exception names that may propagate out
    escapes: frozenset[str]
    #: did every normal completion emit or deliver?
    exits: bool
    #: reachable drops, once each: own pre-order, then callees' in call order
    drops: tuple[ast.Call, ...]
    #: the channels it, or a function it calls, sends to
    emits: frozenset[str]
    #: does it, or a function it calls, ``deliver``?
    delivers: bool
    #: its own ``fun`` calls, in pre-order
    fun_calls: tuple[ast.Call, ...]


_NOTHING = Effects(frozenset(), False, (), frozenset(), False, ())


class EffectWalk:
    """The effects of a program's bodies.

    A ``fun`` body is walked once and its effects memoized by name: they
    do not depend on the call site, and re-deriving them per call would
    make the walk exponential in the depth of a call chain
    (``f_i(x) = f_{i-1}(x) + f_{i-1}(x)``)."""

    def __init__(self, info: ProgramInfo):
        self._funs = info.funs
        self._memo: dict[str, Effects] = {}

    def of_fun(self, name: str) -> Effects:
        facts = self._memo.get(name)
        if facts is None:
            # Pre-seed, so a hand-built recursive AST still terminates.
            self._memo[name] = _NOTHING
            facts = self._memo[name] = self.of(self._funs[name].decl.body)
        return facts

    def of(self, expr: ast.Expr) -> Effects:
        funs = self._funs
        drops: dict[int, ast.Call] = {}
        emits: set[str] = set()
        fun_calls: list[ast.Call] = []
        callees: list[Effects] = []
        delivers = False

        def visit(e: ast.Expr, escapes: set[str]) -> bool:
            """Note what may escape ``e`` in ``escapes`` and its other
            effects on the way; True if every normal completion of ``e``
            emitted or delivered."""
            nonlocal delivers
            kind = type(e)
            if kind is ast.Call:
                func = e.func
                prim = PRIMITIVES.get(func)
                if prim is not None:
                    escapes.update(prim.may_raise)
                exits = False
                if func == "drop":
                    drops[id(e)] = e
                elif func in funs:
                    fun_calls.append(e)
                    callee = self.of_fun(func)
                    callees.append(callee)
                    escapes |= callee.escapes
                    exits = callee.exits
                elif func == "OnRemote" or func == "OnNeighbor":
                    if e.args and isinstance(e.args[0], ast.Var):
                        emits.add(e.args[0].name)
                    exits = True
                elif func == "deliver":
                    delivers = exits = True
                for arg in e.args:
                    exits = visit(arg, escapes) or exits
                return exits
            if kind is ast.BinOp:
                entry = OPERATORS[2].get(e.op)
                # A literal non-zero divisor cannot raise.
                divisor = e.right
                if (entry is not None and entry.raises is not None
                        and not (isinstance(divisor, ast.IntLit)
                                 and divisor.value != 0)):
                    escapes.add(entry.raises[0])
                left = visit(e.left, escapes)
                right = visit(e.right, escapes)
                # The right operand of andalso/orelse may not run.
                return left if e.op in ("andalso", "orelse") else (
                    left or right)
            if kind is ast.If:
                cond = visit(e.cond, escapes)
                then = visit(e.then, escapes)
                orelse = visit(e.orelse, escapes)
                return cond or (then and orelse)
            if kind is ast.Try:
                raised: set[str] = set()
                body = visit(e.body, raised)
                if e.exn != "_":
                    raised.discard(e.exn)
                    escapes |= raised
                # An exception may preempt the body's emission, so both
                # the body and the handler must exit.
                return visit(e.handler, escapes) and body
            if kind is ast.Raise:
                escapes.add(e.exn)
                return True  # vacuous: a raise never completes normally
            exits = False
            for child in ast.children(e):
                exits = visit(child, escapes) or exits
            return exits

        escapes: set[str] = set()
        exits = visit(expr, escapes)
        for callee in callees:
            emits |= callee.emits
            delivers = delivers or callee.delivers
            for call in callee.drops:
                drops.setdefault(id(call), call)
        return Effects(frozenset(escapes), exits, tuple(drops.values()),
                       frozenset(emits), delivers, tuple(fun_calls))
