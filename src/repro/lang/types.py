"""The PLAN-P type language.

PLAN-P is monomorphic and first-order: base types for packet headers and
payloads, tuple types (``ip*tcp*blob``), and two parameterised containers
(``hash_table`` and ``list``).  Ad-hoc polymorphism lives only in the
primitive library: each primitive carries a *type rule* — a function from
argument types to a result type — mirroring the paper's description of
primitive extension ("one function performs the calculation ... the second
computes the return type of the primitive given the types of its
arguments", §2.3).
"""

from __future__ import annotations

from dataclasses import dataclass


class Type:
    """Base class of all PLAN-P types.  Types are immutable values."""

    def __eq__(self, other: object) -> bool:  # pragma: no cover - overridden
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self).__name__)

    def __repr__(self) -> str:
        return str(self)


class _Atomic(Type):
    """A type with no parameters, printed as its keyword."""

    name = "?"

    def __str__(self) -> str:
        return self.name


class IntType(_Atomic):
    name = "int"


class BoolType(_Atomic):
    name = "bool"


class StringType(_Atomic):
    name = "string"


class CharType(_Atomic):
    name = "char"


class UnitType(_Atomic):
    name = "unit"


class HostType(_Atomic):
    """An IP host address (the paper's ``host``)."""

    name = "host"


class PortType(_Atomic):
    name = "port"


class BlobType(_Atomic):
    """An opaque packet payload."""

    name = "blob"


class IpHeaderType(_Atomic):
    """An IP packet header (the ``ip`` component of packet types)."""

    name = "ip"


class TcpHeaderType(_Atomic):
    name = "tcp"


class UdpHeaderType(_Atomic):
    name = "udp"


@dataclass(frozen=True)
class TupleType(Type):
    """A product type ``t1*t2*...*tn`` with n >= 2."""

    elems: tuple[Type, ...]

    def __post_init__(self) -> None:
        if len(self.elems) < 2:
            raise ValueError("tuple types need at least two components")

    def __str__(self) -> str:
        return "*".join(_paren(t) for t in self.elems)


@dataclass(frozen=True)
class HashTableType(Type):
    """``(t) hash_table`` — a finite map from PLAN-P keys to ``t`` values."""

    value: Type

    def __str__(self) -> str:
        return f"({self.value}) hash_table"


@dataclass(frozen=True)
class ListType(Type):
    """``(t) list`` — an immutable list of ``t`` values."""

    elem: Type

    def __str__(self) -> str:
        return f"({self.elem}) list"


class AnyType(_Atomic):
    """The wildcard type of polymorphic primitive results.

    ``mkTable(256)`` and ``listNew()`` cannot know their element type; the
    type rule returns a container over ``ANY`` and the checker accepts it
    wherever a concrete container is expected (one-way compatibility,
    checked by :func:`compatible`).  ``ANY`` never appears in user type
    annotations — it is not in the surface grammar.
    """

    name = "'a"


def _paren(t: Type) -> str:
    if isinstance(t, (TupleType, HashTableType, ListType)):
        return f"({t})"
    return str(t)


# Singleton instances; PLAN-P type expressions always denote one of these
# or a composite built from them, so identity comparison via ``==`` works.
INT = IntType()
BOOL = BoolType()
STRING = StringType()
CHAR = CharType()
UNIT = UnitType()
HOST = HostType()
PORT = PortType()
BLOB = BlobType()
IP = IpHeaderType()
TCP = TcpHeaderType()
UDP = UdpHeaderType()
ANY = AnyType()


def compatible(expected: Type, actual: Type) -> bool:
    """One-way compatibility: may a value of ``actual`` flow into a slot
    declared ``expected``?  ``ANY`` (on either side) matches anything;
    composite types match component-wise."""
    if expected is actual:
        return True
    if isinstance(expected, AnyType) or isinstance(actual, AnyType):
        return True
    if isinstance(expected, TupleType) and isinstance(actual, TupleType):
        if len(expected.elems) != len(actual.elems):
            return False
        for e, a in zip(expected.elems, actual.elems):
            if not compatible(e, a):
                return False
        return True
    if isinstance(expected, HashTableType) and isinstance(actual,
                                                          HashTableType):
        return compatible(expected.value, actual.value)
    if isinstance(expected, ListType) and isinstance(actual, ListType):
        return compatible(expected.elem, actual.elem)
    return expected == actual


def is_equality_type(t: Type) -> bool:
    """Types on which ``=`` / ``<>`` (and table keys) are allowed.

    Hash tables are excluded (mutable identity), as are header types —
    programs compare header *fields*, not whole headers, mirroring the
    original PLAN equality restriction.
    """
    if isinstance(t, (HashTableType, IpHeaderType, TcpHeaderType,
                      UdpHeaderType)):
        return False
    if isinstance(t, TupleType):
        return all(is_equality_type(e) for e in t.elems)
    if isinstance(t, ListType):
        return is_equality_type(t.elem)
    if isinstance(t, AnyType):
        return True
    return True

#: Types allowed as packet-tuple components when a channel is declared with
#: the distinguished name ``network`` (it matches raw traffic, so the packet
#: type must describe real headers and payload views).
HEADER_TYPES = (IP, TCP, UDP)


def is_packet_type(t: Type) -> bool:
    """True if ``t`` is a legal channel packet type.

    A packet type is a tuple whose first component is an ``ip`` header,
    optionally followed by a transport header, followed by payload views
    (``blob`` or decoded scalar views such as ``char``/``int``/``bool``,
    used by overloaded channels as in figure 4 of the paper).
    """
    if not isinstance(t, TupleType):
        return False
    if t.elems[0] != IP:
        return False
    rest = t.elems[1:]
    if rest and rest[0] in (TCP, UDP):
        rest = rest[1:]
    allowed = (BLOB, CHAR, INT, BOOL, STRING, HOST, PORT)
    return all(e in allowed for e in rest)


def state_pair(protocol_state: Type, channel_state: Type) -> TupleType:
    """The required return type of a channel body: ``(ps_type, ss_type)``."""
    return TupleType((protocol_state, channel_state))
