"""The PLAN-P value domain, written out: which Python values inhabit
each type (the table in :mod:`repro.interp.values`).

The engines never check a value against its type at run time (the type
checker has); this is the reference the tests hold generated operands
and engine results to.
"""

from __future__ import annotations

from repro.interp.values import UNIT, PlanPList, PlanPTable
from repro.lang import types as T
from repro.net.addresses import HostAddr
from repro.net.packet import IpHeader, TcpHeader, UdpHeader


def conforms(value: object, ty: T.Type) -> bool:
    """True if ``value`` is a legal inhabitant of ``ty``."""
    if ty == T.UNIT:
        return value is UNIT
    if ty == T.BOOL:
        return isinstance(value, bool)
    if ty == T.INT:
        return isinstance(value, int) and not isinstance(value, bool)
    if ty == T.CHAR:
        return isinstance(value, str) and len(value) == 1
    if ty == T.STRING:
        return isinstance(value, str)
    if ty == T.BLOB:
        return isinstance(value, bytes)
    if ty == T.HOST:
        return isinstance(value, HostAddr)
    if ty == T.IP:
        return isinstance(value, IpHeader)
    if ty == T.TCP:
        return isinstance(value, TcpHeader)
    if ty == T.UDP:
        return isinstance(value, UdpHeader)
    if isinstance(ty, T.TupleType):
        return (isinstance(value, tuple) and len(value) == len(ty.elems)
                and all(conforms(v, e) for v, e in zip(value, ty.elems)))
    if isinstance(ty, T.HashTableType):
        return isinstance(value, PlanPTable)
    if isinstance(ty, T.ListType):
        return (isinstance(value, PlanPList)
                and all(conforms(v, ty.elem) for v in value.items))
    return False
