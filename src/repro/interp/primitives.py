"""The PLAN-P primitive library.

Following the paper (§2.3), each primitive is a pair of functions: one
performs the calculation, the other computes the result type from the
argument types.  Registering a new primitive automatically extends the
interpreter, the type checker, *and* the generated JIT (which calls the
same implementations — or, for a primitive given as an ``inline=``
expression template, pastes the expression its implementation is
derived from), reproducing the "extend the interpreter, then
regenerate the specializer" workflow.

The emission primitives ``OnRemote`` and ``OnNeighbor`` are *not* in this
registry: their first argument is a channel name, not a value, so the
type checker, interpreter, specializer and analyses treat them as syntax
(see their handling in :mod:`repro.lang.typechecker` and
:mod:`repro.interp.interpreter`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..lang import types as T
from ..lang.errors import PlanPRuntimeError, SourcePos, TypeCheckError
from ..net.packet import IpHeader, TcpHeader, UdpHeader
from .context import ExecutionContext
from .values import UNIT, PlanPList, PlanPTable, format_value

TypeRule = Callable[[list[T.Type], SourcePos], T.Type]
Impl = Callable[[ExecutionContext, list[object]], object]

#: What an ``inline=`` template may name besides its arguments and the
#: Python builtins; the source backend puts the same names in the
#: namespace of every generated module.
INLINE_NAMES: dict[str, object] = {
    "IpHeader": IpHeader, "TcpHeader": TcpHeader, "UdpHeader": UdpHeader,
    "PlanPList": PlanPList, "PlanPTable": PlanPTable}

#: Names of channel-argument emission primitives, special-cased everywhere.
EMISSION_PRIMS = ("OnRemote", "OnNeighbor")

#: Built-in exception constructors that primitives may raise.
BUILTIN_EXCEPTIONS = ("NotFound", "Subscript", "HeadEmpty", "DivideByZero",
                      "BadInt", "BadPacket")


@dataclass(frozen=True)
class Primitive:
    """One registered primitive."""

    name: str
    type_rule: TypeRule
    impl: Impl
    #: may raise a PLAN-P exception at run time (delivery analysis input)
    may_raise: tuple[str, ...] = ()
    #: consumes the packet like a send (delivery analysis treats as exit)
    is_exit: bool = False
    #: reads or writes the outside world through the context
    effectful: bool = False
    #: the body as a Python expression over ``{0}``, ``{1}``, ... when
    #: it is one total expression of the arguments (see :func:`register`)
    inline: str | None = None


PRIMITIVES: dict[str, Primitive] = {}


def register(name: str, type_rule: TypeRule, impl: Impl | None = None, *,
             inline: str | None = None,
             may_raise: tuple[str, ...] = (), is_exit: bool = False,
             effectful: bool = False) -> None:
    """Add a primitive to the global registry (idempotent re-registration
    is an error to catch accidental name collisions).

    A primitive whose body is one *total* expression over its arguments
    — no bounds check, no PLAN-P exception, no ``ctx`` — is given as a
    template instead of a function: ``inline="{0}.dst_port"``.  ``impl``
    is derived from it, so the interpreter and the closure backend call
    exactly what the source backend pastes over its (atomic) argument
    names.  Templates may use Python builtins and :data:`INLINE_NAMES`.
    """
    if name in PRIMITIVES:
        raise ValueError(f"primitive {name!r} already registered")
    if (impl is None) == (inline is None):
        raise ValueError(f"primitive {name!r} needs exactly one of impl "
                         f"and inline")
    if inline is not None:
        impl = eval("lambda ctx, a: " + inline.format("a[0]", "a[1]", "a[2]"),
                    dict(INLINE_NAMES))
    PRIMITIVES[name] = Primitive(name, type_rule, impl, may_raise=may_raise,
                                 is_exit=is_exit, effectful=effectful,
                                 inline=inline)


def _raise(exn: str, message: str) -> PlanPRuntimeError:
    return PlanPRuntimeError(message, exception_name=exn)


# ---------------------------------------------------------------------------
# Type-rule helpers
# ---------------------------------------------------------------------------


def sig(params: list[T.Type], result: T.Type) -> TypeRule:
    """A fixed-arity monomorphic signature."""

    def rule(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
        if len(arg_types) != len(params):
            raise TypeCheckError(
                f"expected {len(params)} argument(s), got {len(arg_types)}",
                pos)
        for i, (want, got) in enumerate(zip(params, arg_types), start=1):
            if not T.compatible(want, got):
                raise TypeCheckError(
                    f"argument {i} has type {got}, expected {want}", pos)
        return result

    return rule


def _arity(arg_types: list[T.Type], pos: SourcePos, n: int,
           name: str) -> None:
    if len(arg_types) != n:
        raise TypeCheckError(
            f"{name} expects {n} argument(s), got {len(arg_types)}", pos)


def _packet_rule(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    _arity(arg_types, pos, 1, "packet operation")
    t = arg_types[0]
    if not (isinstance(t, T.TupleType) and t.elems
            and T.compatible(t.elems[0], T.IP)):
        raise TypeCheckError(
            f"expected a packet tuple (ip*...), got {t}", pos)
    return T.UNIT


# ---------------------------------------------------------------------------
# IP header primitives
# ---------------------------------------------------------------------------


register("ipSrc", sig([T.IP], T.HOST), inline="{0}.src")
register("ipDst", sig([T.IP], T.HOST), inline="{0}.dst")
register("ipSrcSet", sig([T.IP, T.HOST], T.IP), inline="{0}.with_src({1})")
register("ipDestSet", sig([T.IP, T.HOST], T.IP), inline="{0}.with_dst({1})")
register("ipTTL", sig([T.IP], T.INT), inline="{0}.ttl")
register("ipProto", sig([T.IP], T.INT), inline="{0}.proto")
register("ipTos", sig([T.IP], T.INT), inline="{0}.tos")
register("ipTosSet", sig([T.IP, T.INT], T.IP),
         inline="IpHeader({0}.src, {0}.dst, {0}.ttl, {0}.proto, {1})")
register("ipSwap", sig([T.IP], T.IP), inline="{0}.swapped()")
register("ipMk", sig([T.HOST, T.HOST], T.IP), inline="IpHeader({0}, {1})")


# ---------------------------------------------------------------------------
# TCP header primitives
# ---------------------------------------------------------------------------


register("tcpSrc", sig([T.TCP], T.INT), inline="{0}.src_port")
register("tcpDst", sig([T.TCP], T.INT), inline="{0}.dst_port")
register("tcpSrcSet", sig([T.TCP, T.INT], T.TCP),
         inline="{0}.with_src_port({1})")
register("tcpDstSet", sig([T.TCP, T.INT], T.TCP),
         inline="{0}.with_dst_port({1})")
register("tcpSeq", sig([T.TCP], T.INT), inline="{0}.seq")
register("tcpAck", sig([T.TCP], T.INT), inline="{0}.ack")
register("tcpSyn", sig([T.TCP], T.BOOL), inline="{0}.syn")
register("tcpFin", sig([T.TCP], T.BOOL), inline="{0}.fin")
register("tcpAckFlag", sig([T.TCP], T.BOOL), inline="{0}.ack_flag")
register("tcpRst", sig([T.TCP], T.BOOL), inline="{0}.rst")
register("tcpSwap", sig([T.TCP], T.TCP), inline="{0}.swapped()")
register("tcpMk", sig([T.INT, T.INT], T.TCP), inline="TcpHeader({0}, {1})")


# ---------------------------------------------------------------------------
# UDP header primitives
# ---------------------------------------------------------------------------


register("udpSrc", sig([T.UDP], T.INT), inline="{0}.src_port")
register("udpDst", sig([T.UDP], T.INT), inline="{0}.dst_port")
register("udpSrcSet", sig([T.UDP, T.INT], T.UDP),
         inline="{0}.with_src_port({1})")
register("udpDstSet", sig([T.UDP, T.INT], T.UDP),
         inline="{0}.with_dst_port({1})")
register("udpSwap", sig([T.UDP], T.UDP), inline="{0}.swapped()")
register("udpMk", sig([T.INT, T.INT], T.UDP), inline="UdpHeader({0}, {1})")


# ---------------------------------------------------------------------------
# Delivery / drop (exits that are not channel sends)
# ---------------------------------------------------------------------------


def _impl_deliver(ctx: ExecutionContext, a: list[object]) -> object:
    ctx.deliver(a[0])
    return UNIT


def _impl_drop(ctx: ExecutionContext, a: list[object]) -> object:
    ctx.drop(a[0])
    return UNIT


register("deliver", _packet_rule, _impl_deliver, is_exit=True,
         effectful=True)
register("drop", _packet_rule, _impl_drop, effectful=True)


# ---------------------------------------------------------------------------
# Blob primitives
# ---------------------------------------------------------------------------


def _check_sub(blob: bytes, start: int, length: int) -> None:
    if start < 0 or length < 0 or start + length > len(blob):
        raise _raise("Subscript",
                     f"blob range [{start}, {start + length}) out of "
                     f"bounds for {len(blob)}-byte blob")


def _impl_blob_byte(ctx: ExecutionContext, a: list[object]) -> object:
    blob, idx = a
    if not 0 <= idx < len(blob):
        raise _raise("Subscript", f"blob index {idx} out of bounds "
                                  f"for {len(blob)}-byte blob")
    return blob[idx]


def _impl_blob_sub(ctx: ExecutionContext, a: list[object]) -> object:
    blob, start, length = a
    _check_sub(blob, start, length)
    return blob[start:start + length]


def _impl_blob_int(ctx: ExecutionContext, a: list[object]) -> object:
    blob, off = a
    _check_sub(blob, off, 4)
    return int.from_bytes(blob[off:off + 4], "big", signed=True)


def _impl_blob_with_int(ctx: ExecutionContext, a: list[object]) -> object:
    blob, off, value = a
    _check_sub(blob, off, 4)
    word = int(value) & 0xFFFFFFFF
    return blob[:off] + word.to_bytes(4, "big") + blob[off + 4:]


def _impl_blob_with_byte(ctx: ExecutionContext, a: list[object]) -> object:
    blob, idx, value = a
    _check_sub(blob, idx, 1)
    return blob[:idx] + bytes([value & 0xFF]) + blob[idx + 1:]


register("blobLen", sig([T.BLOB], T.INT), inline="len({0})")
register("blobByte", sig([T.BLOB, T.INT], T.INT), _impl_blob_byte,
         may_raise=("Subscript",))
register("blobSub", sig([T.BLOB, T.INT, T.INT], T.BLOB), _impl_blob_sub,
         may_raise=("Subscript",))
register("blobCat", sig([T.BLOB, T.BLOB], T.BLOB), inline="{0} + {1}")
register("blobInt", sig([T.BLOB, T.INT], T.INT), _impl_blob_int,
         may_raise=("Subscript",))
register("blobWithInt", sig([T.BLOB, T.INT, T.INT], T.BLOB),
         _impl_blob_with_int, may_raise=("Subscript",))
register("blobWithByte", sig([T.BLOB, T.INT, T.INT], T.BLOB),
         _impl_blob_with_byte, may_raise=("Subscript",))
register("blobOfString", sig([T.STRING], T.BLOB),
         inline='{0}.encode("latin-1", errors="replace")')
register("stringOfBlob", sig([T.BLOB], T.STRING),
         inline='{0}.decode("latin-1")')
register("blobIndex", sig([T.BLOB, T.STRING], T.INT),
         inline='{0}.find({1}.encode("latin-1", errors="replace"))')
register("blobEmpty", sig([], T.BLOB), inline='b""')


# ---------------------------------------------------------------------------
# String / char primitives
# ---------------------------------------------------------------------------


def _impl_string_to_int(ctx: ExecutionContext, a: list[object]) -> object:
    try:
        return int(a[0])
    except ValueError:
        raise _raise("BadInt", f"cannot parse integer from {a[0]!r}")


def _impl_str_sub(ctx: ExecutionContext, a: list[object]) -> object:
    s, start, length = a
    if start < 0 or length < 0 or start + length > len(s):
        raise _raise("Subscript", f"string range out of bounds")
    return s[start:start + length]


def _impl_str_field(ctx: ExecutionContext, a: list[object]) -> object:
    s, index, sep = a
    if not sep:
        raise _raise("Subscript", "strField separator must be non-empty")
    fields = s.split(sep)
    if not 0 <= index < len(fields):
        raise _raise("Subscript",
                     f"field {index} missing ({len(fields)} fields)")
    return fields[index]


register("strLen", sig([T.STRING], T.INT), inline="len({0})")
register("strCat", sig([T.STRING, T.STRING], T.STRING), inline="{0} + {1}")
register("strSub", sig([T.STRING, T.INT, T.INT], T.STRING), _impl_str_sub,
         may_raise=("Subscript",))
register("strIndex", sig([T.STRING, T.STRING], T.INT),
         inline="{0}.find({1})")
register("strField", sig([T.STRING, T.INT, T.STRING], T.STRING),
         _impl_str_field, may_raise=("Subscript",))
register("intToString", sig([T.INT], T.STRING), inline="str({0})")
register("stringToInt", sig([T.STRING], T.INT), _impl_string_to_int,
         may_raise=("BadInt",))
register("hostToString", sig([T.HOST], T.STRING), inline="str({0})")
register("charPos", sig([T.CHAR], T.INT), inline="ord({0})")
register("chr", sig([T.INT], T.CHAR), lambda ctx, a: builtins_chr(a[0]))


def builtins_chr(code: int) -> str:
    if not 0 <= code <= 0x10FFFF:
        raise _raise("Subscript", f"chr code {code} out of range")
    return chr(code)


# ---------------------------------------------------------------------------
# Hash tables
# ---------------------------------------------------------------------------


def _rule_mk_table(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    _arity(arg_types, pos, 1, "mkTable")
    if not T.compatible(T.INT, arg_types[0]):
        raise TypeCheckError("mkTable expects an int capacity", pos)
    return T.HashTableType(T.ANY)


def _rule_table_key(arg_types: list[T.Type], pos: SourcePos,
                    name: str) -> T.HashTableType:
    if not isinstance(arg_types[0], T.HashTableType):
        raise TypeCheckError(
            f"{name} expects a hash_table first argument, "
            f"got {arg_types[0]}", pos)
    if not T.is_equality_type(arg_types[1]):
        raise TypeCheckError(
            f"{name} key type {arg_types[1]} does not admit equality", pos)
    return arg_types[0]


def _rule_table_get(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    _arity(arg_types, pos, 2, "tableGet")
    return _rule_table_key(arg_types, pos, "tableGet").value


def _rule_table_get_default(arg_types: list[T.Type],
                            pos: SourcePos) -> T.Type:
    _arity(arg_types, pos, 3, "tableGetDefault")
    table = _rule_table_key(arg_types, pos, "tableGetDefault")
    if not T.compatible(table.value, arg_types[2]):
        raise TypeCheckError(
            f"default value type {arg_types[2]} does not match table "
            f"value type {table.value}", pos)
    if isinstance(table.value, T.AnyType):
        return arg_types[2]
    return table.value


def _rule_table_set(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    _arity(arg_types, pos, 3, "tableSet")
    table = _rule_table_key(arg_types, pos, "tableSet")
    if not T.compatible(table.value, arg_types[2]):
        raise TypeCheckError(
            f"value type {arg_types[2]} does not match table value type "
            f"{table.value}", pos)
    return T.UNIT


def _rule_table_mem(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    _arity(arg_types, pos, 2, "tableMem")
    _rule_table_key(arg_types, pos, "tableMem")
    return T.BOOL


def _rule_table_remove(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    _arity(arg_types, pos, 2, "tableRemove")
    _rule_table_key(arg_types, pos, "tableRemove")
    return T.UNIT


def _rule_table_size(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    _arity(arg_types, pos, 1, "tableSize")
    if not isinstance(arg_types[0], T.HashTableType):
        raise TypeCheckError("tableSize expects a hash_table", pos)
    return T.INT


def _impl_table_get(ctx: ExecutionContext, a: list[object]) -> object:
    table, key = a
    try:
        return table.get(key)
    except KeyError:
        raise _raise("NotFound", f"key {format_value(key)} not in table")


def _impl_table_set(ctx: ExecutionContext, a: list[object]) -> object:
    a[0].put(a[1], a[2])
    return UNIT


def _impl_table_remove(ctx: ExecutionContext, a: list[object]) -> object:
    a[0].remove(a[1])
    return UNIT


# Capacity clamps at 1: a router ASP asking for a degenerate table must
# keep running (same totality stance as eviction-on-overflow), and the
# bare constructor's ValueError must not cross the containment boundary.
register("mkTable", _rule_mk_table, inline="PlanPTable(max(1, {0}))")
register("tableGet", _rule_table_get, _impl_table_get,
         may_raise=("NotFound",))
register("tableGetDefault", _rule_table_get_default,
         inline="{0}.get_default({1}, {2})")
register("tableSet", _rule_table_set, _impl_table_set)
register("tableMem", _rule_table_mem, inline="{1} in {0}")
register("tableRemove", _rule_table_remove, _impl_table_remove)
register("tableSize", _rule_table_size, inline="len({0})")


# ---------------------------------------------------------------------------
# Lists
# ---------------------------------------------------------------------------


def _rule_list_new(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    _arity(arg_types, pos, 0, "listNew")
    return T.ListType(T.ANY)


def _rule_list_arg(arg_types: list[T.Type], pos: SourcePos,
                   name: str) -> T.ListType:
    _arity(arg_types, pos, 1, name)
    if not isinstance(arg_types[0], T.ListType):
        raise TypeCheckError(f"{name} expects a list, got {arg_types[0]}",
                             pos)
    return arg_types[0]


def _rule_list_head(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    return _rule_list_arg(arg_types, pos, "listHead").elem


def _rule_list_tail(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    return _rule_list_arg(arg_types, pos, "listTail")


def _rule_list_len(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    _rule_list_arg(arg_types, pos, "listLen")
    return T.INT


def _rule_list_null(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    _rule_list_arg(arg_types, pos, "listNull")
    return T.BOOL


def _rule_list_rev(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    return _rule_list_arg(arg_types, pos, "listRev")


def _rule_list_mem(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    _arity(arg_types, pos, 2, "listMem")
    if not isinstance(arg_types[1], T.ListType):
        raise TypeCheckError("listMem expects a list second argument", pos)
    if not T.is_equality_type(arg_types[0]):
        raise TypeCheckError(
            f"listMem element type {arg_types[0]} does not admit equality",
            pos)
    return T.BOOL


def _impl_list_head(ctx: ExecutionContext, a: list[object]) -> object:
    try:
        return a[0].head
    except IndexError:
        raise _raise("HeadEmpty", "head of empty list")


def _impl_list_tail(ctx: ExecutionContext, a: list[object]) -> object:
    try:
        return a[0].tail
    except IndexError:
        raise _raise("HeadEmpty", "tail of empty list")


register("listNew", _rule_list_new, inline="PlanPList()")
register("listHead", _rule_list_head, _impl_list_head,
         may_raise=("HeadEmpty",))
register("listTail", _rule_list_tail, _impl_list_tail,
         may_raise=("HeadEmpty",))
register("listLen", _rule_list_len, inline="len({0})")
register("listNull", _rule_list_null, inline="len({0}) == 0")
register("listRev", _rule_list_rev, inline="{0}.reversed()")
register("listMem", _rule_list_mem, inline="{0} in {1}.items")


# ---------------------------------------------------------------------------
# Audio transforms (the paper's QoS degradation primitives, §1 and §3.1)
#
# Payloads are raw PCM: signed 16-bit little-endian samples, interleaved
# L/R when stereo; or unsigned 8-bit samples after 16->8 degradation.
# ---------------------------------------------------------------------------


def _pcm16(blob: bytes) -> np.ndarray:
    if len(blob) % 2:
        raise _raise("BadPacket", "odd-length 16-bit PCM payload")
    return np.frombuffer(blob, dtype="<i2")


def _impl_audio_stereo_to_mono(ctx: ExecutionContext,
                               a: list[object]) -> object:
    samples = _pcm16(a[0])
    if len(samples) % 2:
        raise _raise("BadPacket", "stereo PCM with odd sample count")
    pairs = samples.reshape(-1, 2).astype(np.int32)
    mono = (pairs.sum(axis=1) // 2).astype("<i2")
    return mono.tobytes()


def _impl_audio_mono_to_stereo(ctx: ExecutionContext,
                               a: list[object]) -> object:
    samples = _pcm16(a[0])
    return np.repeat(samples, 2).astype("<i2").tobytes()


def _impl_audio_16_to_8(ctx: ExecutionContext, a: list[object]) -> object:
    samples = _pcm16(a[0])
    return ((samples.astype(np.int32) >> 8) + 128).astype(np.uint8).tobytes()


def _impl_audio_8_to_16(ctx: ExecutionContext, a: list[object]) -> object:
    samples = np.frombuffer(a[0], dtype=np.uint8)
    return ((samples.astype(np.int32) - 128) << 8).astype("<i2").tobytes()


register("audioStereoToMono", sig([T.BLOB], T.BLOB),
         _impl_audio_stereo_to_mono, may_raise=("BadPacket",))
register("audioMonoToStereo", sig([T.BLOB], T.BLOB),
         _impl_audio_mono_to_stereo, may_raise=("BadPacket",))
register("audio16to8", sig([T.BLOB], T.BLOB), _impl_audio_16_to_8,
         may_raise=("BadPacket",))
register("audio8to16", sig([T.BLOB], T.BLOB), _impl_audio_8_to_16)


# ---------------------------------------------------------------------------
# Environment: node identity, clocks, link monitoring, randomness, output
# ---------------------------------------------------------------------------


def _impl_random(ctx: ExecutionContext, a: list[object]) -> object:
    return ctx.random_int(a[0])


def _rule_println(arg_types: list[T.Type], pos: SourcePos) -> T.Type:
    _arity(arg_types, pos, 1, "println")
    printable = (T.INT, T.BOOL, T.STRING, T.CHAR, T.HOST, T.UNIT)
    t = arg_types[0]
    if t not in printable and not isinstance(
            t, (T.TupleType, T.AnyType, T.ListType)):
        raise TypeCheckError(f"println cannot print values of type {t}", pos)
    return T.UNIT


def _impl_print(ctx: ExecutionContext, a: list[object]) -> object:
    ctx.output(a[0])
    return UNIT


def _impl_println(ctx: ExecutionContext, a: list[object]) -> object:
    ctx.output(format_value(a[0]) + "\n")
    return UNIT


register("thisHost", sig([], T.HOST), lambda ctx, a: ctx.this_host(),
         effectful=True)
register("getTime", sig([], T.INT), lambda ctx, a: ctx.time_ms(),
         effectful=True)
register("linkLoad", sig([T.HOST], T.INT),
         lambda ctx, a: ctx.link_load(a[0]), effectful=True)
register("linkBandwidth", sig([T.HOST], T.INT),
         lambda ctx, a: ctx.link_bandwidth(a[0]), effectful=True)
register("queueLen", sig([T.HOST], T.INT),
         lambda ctx, a: ctx.queue_len(a[0]), effectful=True)
register("random", sig([T.INT], T.INT), _impl_random, effectful=True)
register("print", sig([T.STRING], T.UNIT), _impl_print, effectful=True)
register("println", _rule_println, _impl_println, effectful=True)
