"""Run-time value domain of PLAN-P.

The representation piggybacks on Python values where that is unambiguous:

=============  ==========================================
PLAN-P type    Python representation
=============  ==========================================
int            ``int``
bool           ``bool``
string         ``str``
char           one-character ``str`` (distinguished by static type)
unit           :data:`UNIT` (a singleton)
host           :class:`repro.net.addresses.HostAddr`
blob           ``bytes``
ip             :class:`repro.net.packet.IpHeader`
tcp            :class:`repro.net.packet.TcpHeader`
udp            :class:`repro.net.packet.UdpHeader`
tuple          Python ``tuple`` (length >= 2)
hash_table     :class:`PlanPTable`
list           :class:`PlanPList`
=============  ==========================================

Only ``hash_table`` is mutable, matching the paper's use of hash tables as
channel state that records connections across packets.
"""

from __future__ import annotations

from typing import Iterable

from ..lang import types as T
from ..net.addresses import HostAddr
from ..net.packet import IpHeader, TcpHeader, UdpHeader


class _UnitType:
    """The PLAN-P unit value ``()``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _UnitType)

    def __hash__(self) -> int:
        return hash("planp-unit")


UNIT = _UnitType()


class PlanPTable:
    """A bounded hash table (``mkTable(n)``), the only mutable value.

    The capacity argument mirrors the paper's ``mkTable(256)``; insertion
    beyond capacity evicts the least-recently-inserted entry, modelling a
    fixed-size kernel table rather than failing — a router ASP must keep
    running when its connection table fills.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("table capacity must be positive")
        self.capacity = capacity
        self._entries: dict[object, object] = {}

    def get(self, key: object) -> object:
        """Return the value for ``key``; raises ``KeyError`` if missing."""
        return self._entries[key]

    def get_default(self, key: object, default: object) -> object:
        return self._entries.get(key, default)

    def put(self, key: object, value: object) -> None:
        if key not in self._entries and len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        # Reinsert to refresh insertion order (LRU-by-insertion eviction).
        self._entries.pop(key, None)
        self._entries[key] = value

    def remove(self, key: object) -> None:
        self._entries.pop(key, None)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()

    def __repr__(self) -> str:
        return f"PlanPTable({len(self._entries)}/{self.capacity})"


class PlanPList:
    """An immutable list value, built with ``::`` and ``listNew()``."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[object] = ()):
        object.__setattr__(self, "items", tuple(items))

    def cons(self, head: object) -> "PlanPList":
        return PlanPList((head, *self.items))

    @property
    def head(self) -> object:
        if not self.items:
            raise IndexError("head of empty list")
        return self.items[0]

    @property
    def tail(self) -> "PlanPList":
        if not self.items:
            raise IndexError("tail of empty list")
        return PlanPList(self.items[1:])

    def reversed(self) -> "PlanPList":
        return PlanPList(tuple(reversed(self.items)))

    def __len__(self) -> int:
        return len(self.items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PlanPList) and self.items == other.items

    def __hash__(self) -> int:
        return hash(("planp-list", self.items))

    def __repr__(self) -> str:
        return "[" + ", ".join(map(format_value, self.items)) + "]"


def format_value(value: object) -> str:
    """Render a PLAN-P value the way ``println`` prints it."""
    if value is UNIT:
        return "()"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, HostAddr):
        return str(value)
    if isinstance(value, bytes):
        return f"<blob {len(value)}B>"
    if isinstance(value, tuple):
        return "(" + ", ".join(format_value(v) for v in value) + ")"
    if isinstance(value, IpHeader):
        return f"<ip {value.src}->{value.dst} ttl={value.ttl}>"
    if isinstance(value, TcpHeader):
        return f"<tcp {value.src_port}->{value.dst_port}>"
    if isinstance(value, UdpHeader):
        return f"<udp {value.src_port}->{value.dst_port}>"
    return str(value)


def default_value(ty: T.Type) -> object:
    """The zero value of a type — used for channel state before initstate."""
    if ty == T.INT:
        return 0
    if ty == T.BOOL:
        return False
    if ty in (T.STRING,):
        return ""
    if ty == T.CHAR:
        return "\0"
    if ty == T.UNIT:
        return UNIT
    if ty == T.HOST:
        return HostAddr(0)
    if ty == T.BLOB:
        return b""
    if ty == T.IP:
        return IpHeader()
    if ty == T.TCP:
        return TcpHeader()
    if ty == T.UDP:
        return UdpHeader()
    if isinstance(ty, T.TupleType):
        return tuple(default_value(e) for e in ty.elems)
    if isinstance(ty, T.HashTableType):
        return PlanPTable(256)
    if isinstance(ty, T.ListType):
        return PlanPList()
    raise ValueError(f"no default value for type {ty}")
