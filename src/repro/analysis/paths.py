"""Symbolic path enumeration over channel bodies.

The global-termination and safe-duplication analyses (paper §2.1) both
need to know, for every execution path of a channel, which packets the
path can emit and under which conditions.  This module walks a channel
body abstractly and produces one :class:`PathSummary` per path:

* the *emissions* performed (target channel, abstract destination,
  abstract transport destination port);
* the *constraints* the path places on the incoming packet's transport
  destination port (from guards such as ``tcpDst(tcp) = 80``).

The abstraction tracks exactly what the paper's analysis needs: "for most
protocols, the only two IP addresses available to the program are the
source and destination address of the IP header" — so destinations
abstract to {original dst, original src, this host, literal, unknown} and
ports to {original, literal, unknown}.

Paths multiply across branches and sequential composition; bodies are
small (the paper's largest ASP is 161 lines) so the walker simply
enumerates, with a budget that rejects pathological programs
conservatively.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from ..lang import ast
from ..lang import types as T
from ..lang.errors import VerificationError
from ..lang.typechecker import ProgramInfo
from ..interp.primitives import OPERATORS, Operator
from ..net.addresses import HostAddr

#: Maximum number of paths enumerated per channel before the analysis
#: gives up (conservative rejection, the safe direction).
PATH_BUDGET = 20_000

#: Maximum fun-call inlining depth (funs cannot recurse, so this only
#: guards against deeply nested helper chains).
INLINE_DEPTH = 32


class DstKind(enum.Enum):
    """Abstract IP destination of a packet.  Members hash by identity
    (``Enum.__hash__`` is a Python function): the global-termination
    search hashes one per state it meets."""

    __hash__ = object.__hash__

    ORIG = "orig"      # unchanged: the incoming packet's destination
    SRC = "src"        # rewritten to the incoming packet's source
    THIS = "this"      # rewritten to the executing host
    LIT = "lit"        # rewritten to a program literal
    TOP = "top"        # statically unknown


@dataclass(frozen=True)
class Dst:
    kind: DstKind
    literal: HostAddr | None = None

    def __str__(self) -> str:
        if self.kind is DstKind.LIT:
            return f"lit({self.literal})"
        return self.kind.value


DST_ORIG = Dst(DstKind.ORIG)
DST_SRC = Dst(DstKind.SRC)
DST_THIS = Dst(DstKind.THIS)
DST_TOP = Dst(DstKind.TOP)


class PortKind(enum.Enum):
    """Abstract transport destination port of a packet (hashed by
    identity, like :class:`DstKind`)."""

    __hash__ = object.__hash__

    ORIG = "orig"
    LIT = "lit"
    TOP = "top"
    NONE = "none"      # packet has no transport header


@dataclass(frozen=True)
class Port:
    kind: PortKind
    literal: int | None = None

    def __str__(self) -> str:
        if self.kind is PortKind.LIT:
            return f"lit({self.literal})"
        return self.kind.value


PORT_ORIG = Port(PortKind.ORIG)
PORT_TOP = Port(PortKind.TOP)
PORT_NONE = Port(PortKind.NONE)


# -- abstract values ----------------------------------------------------------


@dataclass(frozen=True)
class AbsVal:
    """Base abstract value."""


@dataclass(frozen=True)
class AbsTop(AbsVal):
    pass


@dataclass(frozen=True)
class AbsIp(AbsVal):
    """An ip header; we track only where its destination points."""

    dst: Dst


@dataclass(frozen=True)
class AbsTrans(AbsVal):
    """A tcp/udp header; we track only its destination port."""

    dst_port: Port


@dataclass(frozen=True)
class AbsHost(AbsVal):
    """A host value, classified relative to the incoming packet."""

    dst: Dst


@dataclass(frozen=True)
class AbsInt(AbsVal):
    value: int | None  # None = unknown int


@dataclass(frozen=True)
class AbsTuple(AbsVal):
    elems: tuple[AbsVal, ...]


TOP = AbsTop()

#: Primitives with a transfer function in ``PathWalker._prim_abstract``;
#: every other primitive's result is TOP.
_TRANSFERRED = frozenset({
    "ipDestSet", "ipSrcSet", "ipTosSet", "ipSwap", "ipMk", "ipSrc", "ipDst",
    "thisHost", "tcpDstSet", "udpDstSet", "tcpSrcSet", "udpSrcSet",
    "tcpSwap", "udpSwap", "tcpMk", "udpMk", "tcpDst", "udpDst"})

#: Expressions whose abstraction is TOP and that branch nowhere.
_OPAQUE = frozenset({ast.BoolLit, ast.StringLit, ast.CharLit, ast.UnitLit,
                     ast.Raise})


def _operator_value(entry: Operator | None, lval: AbsVal,
                    rval: AbsVal) -> AbsVal:
    """A binary operator's abstraction: an int operator that cannot
    raise is folded through its value function when both operands are
    known; ``andalso``/``orelse`` (``entry`` None) and every non-int
    operator are TOP."""
    if entry is None or entry.operands != "int":
        return TOP
    if (entry.raises is None and isinstance(lval, AbsInt)
            and isinstance(rval, AbsInt) and lval.value is not None
            and rval.value is not None):
        return AbsInt(entry.value(lval.value, rval.value))
    return AbsInt(None)


# -- path state ---------------------------------------------------------------


@dataclass(frozen=True)
class PortConstraint:
    """Accumulated equalities/disequalities along one path on the incoming
    packet's transport destination port and IP destination (from guards
    such as ``tcpDst(tcp) = 80`` and ``ipDst(iph) = 131.254.60.81``)."""

    eq: int | None = None
    neq: frozenset[int] = frozenset()
    dst_eq: HostAddr | None = None
    dst_neq: frozenset[HostAddr] = frozenset()

    def with_eq(self, value: int) -> "PortConstraint | None":
        """None means the path is infeasible."""
        if self.eq is not None and self.eq != value:
            return None
        if value in self.neq:
            return None
        return PortConstraint(value, self.neq, self.dst_eq, self.dst_neq)

    def with_neq(self, value: int) -> "PortConstraint | None":
        if self.eq is not None and self.eq == value:
            return None
        return PortConstraint(self.eq, self.neq | {value}, self.dst_eq,
                              self.dst_neq)

    def with_dst_eq(self, value: HostAddr) -> "PortConstraint | None":
        if self.dst_eq is not None and self.dst_eq != value:
            return None
        if value in self.dst_neq:
            return None
        return PortConstraint(self.eq, self.neq, value, self.dst_neq)

    def with_dst_neq(self, value: HostAddr) -> "PortConstraint | None":
        if self.dst_eq is not None and self.dst_eq == value:
            return None
        return PortConstraint(self.eq, self.neq, self.dst_eq,
                              self.dst_neq | {value})

    def admits(self, port: Port, dst: Dst | None = None) -> bool:
        """Could a packet with abstract port ``port`` (and, if given,
        abstract destination ``dst``) take this path?"""
        if port.kind is PortKind.LIT:
            if self.eq is not None and self.eq != port.literal:
                return False
            if port.literal in self.neq:
                return False
        if dst is not None and dst.kind is DstKind.LIT:
            if self.dst_eq is not None and self.dst_eq != dst.literal:
                return False
            if dst.literal in self.dst_neq:
                return False
        # ORIG/TOP: statically unconstrained.
        return True


@dataclass(frozen=True)
class _PortGuard:
    value: int

    def apply(self, c: PortConstraint) -> PortConstraint | None:
        return c.with_eq(self.value)

    def apply_negated(self, c: PortConstraint) -> PortConstraint | None:
        return c.with_neq(self.value)


@dataclass(frozen=True)
class _DstGuard:
    value: HostAddr

    def apply(self, c: PortConstraint) -> PortConstraint | None:
        return c.with_dst_eq(self.value)

    def apply_negated(self, c: PortConstraint) -> PortConstraint | None:
        return c.with_dst_neq(self.value)


_Guard = _PortGuard | _DstGuard


@dataclass(frozen=True)
class Emission:
    """One OnRemote/OnNeighbor performed along a path."""

    target: str                 # channel name
    dst: Dst
    port: Port
    neighbor_bound: bool        # True for OnNeighbor (single hop)
    line: int = 0


@dataclass
class PathSummary:
    """One execution path through a channel body."""

    constraint: PortConstraint = field(default_factory=PortConstraint)
    emissions: tuple[Emission, ...] = ()
    delivers: bool = False
    drops: bool = False


# -- the walker -------------------------------------------------------------------


class _State(NamedTuple):
    """Immutable per-path walker state."""

    constraint: PortConstraint
    emissions: tuple[Emission, ...]
    delivers: bool = False
    drops: bool = False


#: What one ``_walk`` returns: an (abstract value, state) pair per path,
#: in the order the paths branch.
_Paths = list[tuple[AbsVal, _State]]


class PathWalker:
    """Enumerates paths of one channel declaration."""

    def __init__(self, info: ProgramInfo, decl: ast.ChannelDecl):
        self._info = info
        self._decl = decl
        self._remaining = PATH_BUDGET
        self._packet_name = decl.params[2].name
        self._global_env = self._abstract_globals()

    def _abstract_globals(self) -> dict[str, AbsVal]:
        """Abstract values of top-level ``val`` bindings — host and int
        constants must stay visible to guards and emissions."""
        env: dict[str, AbsVal] = {}
        for decl in self._info.program.vals:
            env[decl.name] = self._abstract_of(decl.value, env)
        return env

    def paths(self) -> list[PathSummary]:
        env = self._initial_env()
        init = _State(PortConstraint(), ())
        return [PathSummary(constraint=state.constraint,
                            emissions=state.emissions,
                            delivers=state.delivers, drops=state.drops)
                for _value, state in self._walk(self._decl.body, env, init,
                                                0)]

    def _initial_env(self) -> dict[str, AbsVal]:
        env = dict(self._global_env)
        env[self._decl.params[0].name] = TOP
        env[self._decl.params[1].name] = TOP
        env[self._packet_name] = self._abstract_packet()
        return env

    def _abstract_packet(self) -> AbsVal:
        pkt_type = self._decl.packet_type
        if not isinstance(pkt_type, T.TupleType):
            return TOP
        elems: list[AbsVal] = []
        for i, t in enumerate(pkt_type.elems):
            if t == T.IP:
                elems.append(AbsIp(DST_ORIG))
            elif t in (T.TCP, T.UDP):
                elems.append(AbsTrans(PORT_ORIG))
            else:
                elems.append(TOP)
        return AbsTuple(tuple(elems))

    # Every walk returns its paths as a list, one (abstract value, state)
    # pair per path; a sub-expression is walked once per path reaching
    # it, and each such walk costs one unit of the budget.

    def _walk(self, expr: ast.Expr, env: dict[str, AbsVal], state: _State,
              depth: int) -> _Paths:
        self._remaining -= 1
        if self._remaining < 0:
            raise VerificationError(
                f"path enumeration budget exceeded ({PATH_BUDGET} paths); "
                f"program rejected conservatively", analysis="paths")
        kind = type(expr)

        if kind is ast.Var:
            return [(env.get(expr.name, TOP), state)]
        if kind is ast.Call:
            return self._walk_call(expr, env, state, depth)
        if kind is ast.IntLit:
            return [(AbsInt(expr.value), state)]
        if kind is ast.HostLit:
            return [(AbsHost(Dst(DstKind.LIT, HostAddr.parse(expr.value))),
                     state)]
        if kind in _OPAQUE:
            # Raise aborts the path; for emission analyses treating it as
            # a terminal with no further emissions is sound.
            return [(TOP, state)]
        if kind is ast.BinOp:
            entry = OPERATORS[2].get(expr.op)
            out: _Paths = []
            for (lval, rval), st in self._values((expr.left, expr.right),
                                                 env, state, depth):
                out.append((_operator_value(entry, lval, rval), st))
            return out
        if kind is ast.UnOp:
            out = []
            for _val, st in self._walk(expr.operand, env, state, depth):
                out.append((TOP, st))
            return out
        if kind is ast.If:
            return self._walk_if(expr, env, state, depth)
        if kind is ast.Let:
            return self._walk_let(expr, env, state, depth)
        if kind is ast.Seq:
            *effects, last = expr.exprs
            out = []
            for st in self._after(effects, env, state, depth):
                out += self._walk(last, env, st, depth)
            return out
        if kind is ast.TupleExpr:
            out = []
            for vals, st in self._values(expr.elems, env, state, depth):
                out.append((AbsTuple(vals), st))
            return out
        if kind is ast.Proj:
            index = expr.index
            out = []
            for val, st in self._walk(expr.tuple_expr, env, state, depth):
                if isinstance(val, AbsTuple) and 1 <= index <= len(val.elems):
                    out.append((val.elems[index - 1], st))
                else:
                    out.append((TOP, st))
            return out
        if kind is ast.Try:
            # Both the normal and the handler continuation are feasible.
            return (self._walk(expr.body, env, state, depth)
                    + self._walk(expr.handler, env, state, depth))
        raise TypeError(f"path walker cannot handle {kind.__name__}")

    # The helpers below loop rather than nest comprehensions: a
    # comprehension is a function call of its own, once per walk.

    def _values(self, exprs: Sequence[ast.Expr], env: dict[str, AbsVal],
                state: _State, depth: int) -> list[tuple[tuple[AbsVal, ...],
                                                         _State]]:
        """Walk ``exprs`` left to right: one (values, state) pair per
        path through all of them."""
        frontier: list[tuple[tuple[AbsVal, ...], _State]] = [((), state)]
        for expr in exprs:
            after = []
            for vals, st in frontier:
                for val, st2 in self._walk(expr, env, st, depth):
                    after.append((vals + (val,), st2))
            frontier = after
        return frontier

    def _after(self, exprs: Sequence[ast.Expr], env: dict[str, AbsVal],
               state: _State, depth: int) -> list[_State]:
        """Walk ``exprs`` left to right for their effects only."""
        states = [state]
        for expr in exprs:
            after = []
            for st in states:
                for _val, st2 in self._walk(expr, env, st, depth):
                    after.append(st2)
            states = after
        return states

    def _walk_if(self, expr: ast.If, env: dict[str, AbsVal], state: _State,
                 depth: int) -> _Paths:
        # Evaluate the condition for its effects, then refine the
        # constraints from recognised guards.
        conds = self._walk(expr.cond, env, state, depth)
        guards, negatable = self._guards(expr.cond, env)
        out: _Paths = []
        for _cond_val, st in conds:
            then_constraint = st.constraint
            for guard in guards:
                if then_constraint is None:
                    break
                then_constraint = guard.apply(then_constraint)
            else_constraint = st.constraint
            if negatable and len(guards) == 1:
                else_constraint = guards[0].apply_negated(else_constraint)
            if then_constraint is not None:
                out += self._walk(
                    expr.then, env,
                    _State(then_constraint, st.emissions, st.delivers,
                           st.drops), depth)
            if else_constraint is not None:
                out += self._walk(
                    expr.orelse, env,
                    _State(else_constraint, st.emissions, st.delivers,
                           st.drops), depth)
        return out

    def _guards(self, cond: ast.Expr, env: dict[str, AbsVal]) -> \
            tuple[list["_Guard"], bool]:
        """Extract guards from a condition.

        Returns (guards, negatable): ``guards`` hold in the then-branch;
        the else-branch may assume the negation only when the condition
        is a single atomic guard (``negatable``)."""
        if isinstance(cond, ast.BinOp) and cond.op == "andalso":
            left, _ = self._guards(cond.left, env)
            right, _ = self._guards(cond.right, env)
            return left + right, False
        guard = self._atomic_guard(cond, env)
        if guard is None:
            return [], False
        return [guard], True

    def _atomic_guard(self, cond: ast.Expr, env: dict[str, AbsVal]) -> \
            "_Guard | None":
        """Recognise ``tcpDst(x) = N`` / ``udpDst(x) = N`` /
        ``ipDst(x) = A.B.C.D`` guards on the incoming packet's headers
        (either operand order)."""
        if not (isinstance(cond, ast.BinOp) and cond.op == "="):
            return None
        for fn_side, lit_side in ((cond.left, cond.right),
                                  (cond.right, cond.left)):
            if not (isinstance(fn_side, ast.Call)
                    and len(fn_side.args) == 1):
                continue
            if fn_side.func in ("tcpDst", "udpDst"):
                port_val = self._abstract_of(lit_side, env)
                header = self._abstract_of(fn_side.args[0], env)
                if (isinstance(header, AbsTrans)
                        and header.dst_port.kind is PortKind.ORIG
                        and isinstance(port_val, AbsInt)
                        and port_val.value is not None):
                    return _PortGuard(port_val.value)
            if fn_side.func == "ipDst":
                dst_val = self._abstract_of(lit_side, env)
                header = self._abstract_of(fn_side.args[0], env)
                if (isinstance(header, AbsIp)
                        and header.dst.kind is DstKind.ORIG
                        and isinstance(dst_val, AbsHost)
                        and dst_val.dst.kind is DstKind.LIT):
                    return _DstGuard(dst_val.dst.literal)
        return None

    def _abstract_of(self, expr: ast.Expr,
                     env: dict[str, AbsVal]) -> AbsVal:
        """Effect-free abstraction of an expression (used inside guards,
        where channel bodies never place effects)."""
        if isinstance(expr, ast.Var):
            return env.get(expr.name, TOP)
        if isinstance(expr, ast.Proj):
            inner = self._abstract_of(expr.tuple_expr, env)
            if isinstance(inner, AbsTuple) and \
                    1 <= expr.index <= len(inner.elems):
                return inner.elems[expr.index - 1]
            return TOP
        if isinstance(expr, ast.IntLit):
            return AbsInt(expr.value)
        if isinstance(expr, ast.HostLit):
            return AbsHost(Dst(DstKind.LIT, HostAddr.parse(expr.value)))
        if isinstance(expr, ast.Call):
            vals = [self._abstract_of(a, env) for a in expr.args]
            return self._prim_abstract(expr.func, vals)
        return TOP

    def _walk_let(self, expr: ast.Let, env: dict[str, AbsVal],
                  state: _State, depth: int) -> _Paths:
        # One (environment, state) pair per path through the bindings.
        frontier = [(env, state)]
        for binding in expr.bindings:
            name, value = binding.name, binding.value
            after = []
            for outer, st in frontier:
                for val, st2 in self._walk(value, outer, st, depth):
                    after.append(({**outer, name: val}, st2))
            frontier = after
        out: _Paths = []
        for inner, st in frontier:
            out += self._walk(expr.body, inner, st, depth)
        return out

    def _walk_call(self, expr: ast.Call, env: dict[str, AbsVal],
                   state: _State, depth: int) -> _Paths:
        name = expr.func
        out: _Paths = []
        if name == "OnRemote" or name == "OnNeighbor":
            target = expr.args[0].name  # type: ignore[union-attr]
            for pkt_val, st in self._walk(expr.args[1], env, state, depth):
                dst, port = self._packet_abstraction(pkt_val)
                emission = Emission(target=target, dst=dst, port=port,
                                    neighbor_bound=(name == "OnNeighbor"),
                                    line=expr.pos.line)
                ends = (self._after(expr.args[2:], env, st, depth)
                        if name == "OnNeighbor" else [st])
                for st2 in ends:
                    out.append((TOP, _State(st2.constraint,
                                            st2.emissions + (emission,),
                                            st2.delivers, st2.drops)))
            return out
        if name == "deliver":
            for _val, st in self._walk(expr.args[0], env, state, depth):
                out.append((TOP, _State(st.constraint, st.emissions, True,
                                        st.drops)))
            return out
        if name == "drop":
            for _val, st in self._walk(expr.args[0], env, state, depth):
                out.append((TOP, _State(st.constraint, st.emissions,
                                        st.delivers, True)))
            return out
        fun = self._info.funs.get(name)
        if fun is None:
            # Ordinary primitive: walk arguments for paths/effects, then
            # compute the abstract result.
            for vals, st in self._values(expr.args, env, state, depth):
                out.append((self._prim_abstract(name, vals), st))
            return out
        if depth >= INLINE_DEPTH:
            raise VerificationError(
                "function inlining depth exceeded", analysis="paths")
        params = [p.name for p in fun.decl.params]
        for vals, st in self._values(expr.args, env, state, depth):
            fun_env = dict(self._global_env)
            fun_env.update(zip(params, vals))
            out += self._walk(fun.decl.body, fun_env, st, depth + 1)
        return out

    # -- primitive transfer functions ------------------------------------------

    @staticmethod
    def _prim_abstract(name: str, vals: Sequence[AbsVal]) -> AbsVal:
        if name not in _TRANSFERRED:
            return TOP

        def ip_of(i: int) -> AbsIp | None:
            return vals[i] if i < len(vals) and isinstance(vals[i],
                                                           AbsIp) else None

        def trans_of(i: int) -> AbsTrans | None:
            return vals[i] if i < len(vals) and isinstance(
                vals[i], AbsTrans) else None

        def host_of(i: int) -> AbsHost | None:
            return vals[i] if i < len(vals) and isinstance(
                vals[i], AbsHost) else None

        def int_of(i: int) -> AbsInt | None:
            return vals[i] if i < len(vals) and isinstance(
                vals[i], AbsInt) else None

        if name == "ipDestSet":
            host = host_of(1)
            return AbsIp(host.dst if host else DST_TOP)
        if name == "ipSrcSet":
            ip = ip_of(0)
            return ip if ip else AbsIp(DST_TOP)
        if name in ("ipTosSet",):
            ip = ip_of(0)
            return ip if ip else AbsIp(DST_TOP)
        if name == "ipSwap":
            ip = ip_of(0)
            if ip and ip.dst.kind is DstKind.ORIG:
                return AbsIp(DST_SRC)
            return AbsIp(DST_TOP)
        if name == "ipMk":
            host = host_of(1)
            return AbsIp(host.dst if host else DST_TOP)
        if name == "ipSrc":
            ip = ip_of(0)
            if ip and ip.dst.kind is DstKind.ORIG:
                return AbsHost(DST_SRC)
            return AbsHost(DST_TOP)
        if name == "ipDst":
            ip = ip_of(0)
            return AbsHost(ip.dst if ip else DST_TOP)
        if name == "thisHost":
            return AbsHost(DST_THIS)
        if name in ("tcpDstSet", "udpDstSet"):
            port_val = int_of(1)
            if port_val and port_val.value is not None:
                return AbsTrans(Port(PortKind.LIT, port_val.value))
            return AbsTrans(PORT_TOP)
        if name in ("tcpSrcSet", "udpSrcSet"):
            trans = trans_of(0)
            return trans if trans else AbsTrans(PORT_TOP)
        if name in ("tcpSwap", "udpSwap"):
            return AbsTrans(PORT_TOP)
        if name in ("tcpMk", "udpMk"):
            port_val = int_of(1)
            if port_val and port_val.value is not None:
                return AbsTrans(Port(PortKind.LIT, port_val.value))
            return AbsTrans(PORT_TOP)
        if name in ("tcpDst", "udpDst"):
            trans = trans_of(0)
            if trans and trans.dst_port.kind is PortKind.LIT:
                return AbsInt(trans.dst_port.literal)
            return AbsInt(None)
        return TOP

    @staticmethod
    def _packet_abstraction(pkt: AbsVal) -> tuple[Dst, Port]:
        """Destination/port abstraction of an emitted packet tuple."""
        if not isinstance(pkt, AbsTuple) or not pkt.elems:
            return DST_TOP, PORT_TOP
        dst = DST_TOP
        if isinstance(pkt.elems[0], AbsIp):
            dst = pkt.elems[0].dst
        port = PORT_NONE
        if len(pkt.elems) > 1 and isinstance(pkt.elems[1], AbsTrans):
            port = pkt.elems[1].dst_port
        elif len(pkt.elems) > 1 and isinstance(pkt.elems[1], AbsTop):
            port = PORT_TOP
        return dst, port


def channel_paths(info: ProgramInfo,
                  decl: ast.ChannelDecl) -> list[PathSummary]:
    """All execution paths of one channel declaration."""
    return PathWalker(info, decl).paths()


#: Every overload's paths, keyed by (channel name, overload index).
ProgramPaths = dict[tuple[str, int], list[PathSummary]]


def program_paths(info: ProgramInfo) -> ProgramPaths:
    """Enumerate each channel declaration of the program once.  The
    analyses that consume paths take the result as an argument so that
    one verification walks every body a single time; they only read it."""
    return {(name, i): channel_paths(info, decl)
            for name, overloads in info.channels.items()
            for i, decl in enumerate(overloads)}
