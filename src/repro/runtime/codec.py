"""Encoding between wire packets and PLAN-P packet values.

A channel's packet type (``ip*tcp*char*int`` etc.) describes a *view* of
a real packet: the IP header, optionally a transport header, then a
sequence of payload views decoded from the payload bytes.  This is how
overloaded ``network`` channels dispatch on the leading payload byte in
figure 4 of the paper — the ``char`` view *is* that byte.

View layout rules:

* fixed-size views: ``char``/``bool`` = 1 byte, ``int`` = 4 bytes
  big-endian signed, ``host`` = 4 bytes;
* ``blob`` and ``string`` consume the remaining payload and therefore
  may only appear as the final component;
* a packet matches a type only if the payload is long enough for all
  fixed views, and any residue is consumed by a trailing blob/string.

Two decoder shapes coexist:

* :func:`make_decoder` — one packet to one value tuple (the per-packet
  fast path);
* :func:`make_batch_decoder` — the tier-3 struct-of-arrays decoder: a
  run of same-type packets decodes into parallel *columns* with one C
  call per fixed field per batch (``struct.iter_unpack`` over the
  joined payloads when the stride is uniform); value conversions
  (``chr``, :class:`HostAddr`, latin-1) are applied per column when
  ``rows()`` — what both batch folds consume — zips them into value
  tuples.
"""

from __future__ import annotations

import struct

from ..lang import types as T
from ..net.addresses import HostAddr
from ..net.packet import (PROTO_RAW, TRANSPORT_PROTO, IpHeader, Packet,
                          TcpHeader, UdpHeader, next_uid)

_FIXED_SIZES: dict[T.Type, int] = {T.CHAR: 1, T.BOOL: 1, T.INT: 4, T.HOST: 4}

#: struct format characters for the fixed-size views (big-endian)
_STRUCT_FMT: dict[T.Type, str] = {T.CHAR: "B", T.BOOL: "B", T.INT: "i",
                                  T.HOST: "I"}

#: packet-type transport component -> (the header class a matching
#: packet carries, its name in summaries and packet specs)
_TRANSPORTS: dict[T.Type | None, tuple[type, str]] = {
    T.TCP: (TcpHeader, "tcp"), T.UDP: (UdpHeader, "udp"),
    None: (type(None), "raw")}


class CodecError(Exception):
    """A value tuple cannot be encoded, or a type is malformed."""


def packet_views(packet_type: T.TupleType) -> tuple[T.Type | None,
                                                    list[T.Type]]:
    """Split a packet type into (transport header type | None, payload
    view types).  Raises :class:`CodecError` on malformed layouts."""
    elems = list(packet_type.elems)
    if not elems or elems[0] != T.IP:
        raise CodecError(f"packet type must start with ip: {packet_type}")
    rest = elems[1:]
    transport: T.Type | None = None
    if rest and rest[0] in (T.TCP, T.UDP):
        transport = rest[0]
        rest = rest[1:]
    for view in rest[:-1]:
        if view in (T.BLOB, T.STRING):
            raise CodecError(
                f"{view} view must be the final component: {packet_type}")
    for view in rest:
        if view not in _FIXED_SIZES and view not in (T.BLOB, T.STRING):
            raise CodecError(f"unsupported payload view {view}")
    return transport, rest


class Layout:
    """The byte-level facts of one packet type, derived once
    (:func:`layout`) and read by every matcher, decoder and analysis:
    which transport header it wants, its payload views, how many bytes
    the fixed-size views take, and whether a trailing blob/string
    consumes whatever is left."""

    __slots__ = ("packet_type", "transport", "transport_cls",
                 "transport_name", "views", "fixed", "has_tail")

    def __init__(self, packet_type: T.TupleType, transport: T.Type | None,
                 views: tuple[T.Type, ...]):
        self.packet_type = packet_type
        self.transport = transport
        self.transport_cls, self.transport_name = _TRANSPORTS[transport]
        self.views = views
        self.fixed = sum(_FIXED_SIZES.get(v, 0) for v in views)
        self.has_tail = bool(views) and views[-1] in (T.BLOB, T.STRING)

    def admits(self, payload_len: int) -> bool:
        if self.has_tail:
            return payload_len >= self.fixed
        return payload_len == self.fixed


def layout(packet_type: T.TupleType) -> Layout:
    """The :class:`Layout` of a packet type; :class:`CodecError` when
    the type is malformed (see :func:`packet_views`)."""
    transport, views = packet_views(packet_type)
    return Layout(packet_type, transport, tuple(views))


def matches(packet: Packet, packet_type: T.TupleType) -> bool:
    """Does a wire packet match a channel's packet type?"""
    try:
        lay = layout(packet_type)
    except CodecError:
        return False
    return (isinstance(packet.transport, lay.transport_cls)
            and lay.admits(len(packet.payload)))


class DispatchPlan:
    """One packet type's :class:`Layout` plus its compiled decoders,
    computed once (:func:`dispatch_plan`) instead of per packet or per
    install.

    A packet matches iff its transport header is an instance of
    ``transport_cls`` and ``admits`` its payload length; ``decode`` then
    builds the packet value with all view offsets precomputed.
    """

    __slots__ = ("layout", "transport_cls", "admits", "decode",
                 "_batch_decoder")

    def __init__(self, lay: Layout, decode):
        self.layout = lay
        self.transport_cls = lay.transport_cls
        self.admits = lay.admits
        self.decode = decode
        self._batch_decoder = None

    def batch_decoder(self) -> "BatchDecoder":
        """The tier-3 struct-of-arrays decoder for this packet type,
        compiled on first use (installs stay cheap; only channels that
        actually see batched traffic pay the codegen)."""
        bd = self._batch_decoder
        if bd is None:
            bd = self._batch_decoder = make_batch_decoder(
                self.layout.packet_type)
        return bd


def _check_payload_len(n: int, lay: Layout) -> None:
    """Reject payloads the view layout cannot consume exactly.

    Every decoder front door funnels malformed lengths through here so
    truncated or stride-breaking payloads surface as :class:`CodecError`
    — never as a silent short-slice decode (``int.from_bytes`` happily
    decodes a 2-byte slice of a 4-byte view) or a leaked ``IndexError``.
    """
    if n < lay.fixed:
        raise CodecError(
            f"payload of {n} bytes is shorter than the {lay.fixed} fixed "
            f"bytes of {lay.packet_type}")
    if not lay.has_tail and n != lay.fixed:
        raise CodecError(
            f"payload of {n} bytes does not match the exact {lay.fixed} "
            f"bytes of tail-less {lay.packet_type}")


def _view_exprs(views: tuple[T.Type, ...]) -> list[str]:
    """One Python expression per payload view over the payload ``_b``,
    offsets baked in."""
    exprs = []
    offset = 0
    for view in views:
        tail = f"_b[{offset}:]" if offset else "_b"
        if view == T.BLOB:
            exprs.append(tail)
        elif view == T.STRING:
            exprs.append(f'{tail}.decode("latin-1")')
        elif view == T.CHAR:
            exprs.append(f"chr(_b[{offset}])")
            offset += 1
        elif view == T.BOOL:
            exprs.append(f"_b[{offset}] != 0")
            offset += 1
        elif view == T.INT:
            exprs.append(f'_int(_b[{offset}:{offset + 4}], "big", '
                         f"signed=True)")
            offset += 4
        elif view == T.HOST:
            exprs.append(f'HostAddr(_int(_b[{offset}:{offset + 4}], "big"))')
            offset += 4
    return exprs


def _compile_decoder(lay: Layout):
    """Straight-line source for one layout's decoder: the length test
    :meth:`Layout.admits` makes, then one tuple display."""
    lines = ["def _decode(_p):",
             "    _b = _p.payload"]
    # a tail view admits any length from ``fixed`` up
    test = (f"!= {lay.fixed}" if not lay.has_tail
            else f"< {lay.fixed}" if lay.fixed else None)
    if test is not None:
        lines += [f"    if len(_b) {test}:",
                  "        _check_payload_len(len(_b), _lay)"]
    parts = ["_p.ip"]
    if lay.transport is not None:
        parts.append("_p.transport")
    parts += _view_exprs(lay.views)
    lines.append(f"    return ({', '.join(parts)})")
    namespace = {"_lay": lay, "_check_payload_len": _check_payload_len,
                 "_int": int.from_bytes, "HostAddr": HostAddr}
    exec(compile("\n".join(lines), f"<decoder {lay.packet_type}>", "exec"),
         namespace)
    return namespace["_decode"]


#: (transport, views) -> compiled decoder.  A decoder depends on nothing
#: else, and programs share the same few layouts.
_DECODERS: dict[tuple, object] = {}


def make_decoder(packet_type: T.TupleType):
    """Compile ``decode(packet, packet_type)`` down to straight-line
    code with the view walk and all offsets resolved ahead of time; one
    function per layout, however often it is asked for."""
    lay = layout(packet_type)
    key = (lay.transport, lay.views)
    decoder = _DECODERS.get(key)
    if decoder is None:
        decoder = _DECODERS[key] = _compile_decoder(lay)
    return decoder


#: packet type -> its plan (or None).  A plan is immutable but for the
#: batch decoder it compiles on first use, so every overload of that
#: type, on every node and in every install, shares one.
_PLANS: dict[T.TupleType, DispatchPlan | None] = {}


def dispatch_plan(packet_type: T.TupleType) -> DispatchPlan | None:
    """The precomputed matcher+decoder for a channel's packet type, or
    ``None`` if the layout is malformed (such a channel never matches);
    one plan per packet type, however often it is asked for."""
    try:
        return _PLANS[packet_type]
    except KeyError:
        pass
    try:
        lay = layout(packet_type)
    except CodecError:
        plan = None
    else:
        plan = DispatchPlan(lay, make_decoder(packet_type))
    _PLANS[packet_type] = plan
    return plan


class BatchDecoder:
    """A per-packet-type struct-of-arrays decoder for runs of matching
    packets.  ``batch(packets)`` wraps a run without touching any bytes;
    the raw columns decode on first access (one C call per fixed field
    per batch) and ``rows()`` applies the value conversions.
    """

    __slots__ = ("width", "_soa_fn", "_convs")

    def __init__(self, width, soa_fn, convs):
        self.width = width
        self._soa_fn = soa_fn
        self._convs = convs

    def batch(self, packets: list[Packet]) -> "PacketBatch":
        return PacketBatch(packets, self)


class PacketBatch:
    """A lazily-decoded run of same-type packets.

    ``soa()`` yields the raw columns (header objects, struct-decoded
    ints, tail slices); ``column(i)`` the value-converted column for
    component ``i`` of the packet value; ``rows()`` the full list of
    packet-value tuples.  Decode errors (a payload corrupted after
    classification) surface from ``soa()``/``column()``/``rows()``
    before any row executes, so callers can fall back per packet with
    no partially-consumed state left behind.
    """

    __slots__ = ("packets", "decoder", "_raw", "_rows")

    def __init__(self, packets: list[Packet], decoder: BatchDecoder):
        self.packets = packets
        self.decoder = decoder
        self._raw = None
        self._rows = None

    def __len__(self) -> int:
        return len(self.packets)

    def soa(self) -> tuple:
        raw = self._raw
        if raw is None:
            raw = self._raw = self.decoder._soa_fn(self.packets)
        return raw

    def column(self, i: int) -> list:
        raw = self.soa()[i]
        conv = self.decoder._convs[i]
        return raw if conv is None else [conv(x) for x in raw]

    def rows(self) -> list[tuple]:
        rows = self._rows
        if rows is None:
            width = self.decoder.width
            rows = self._rows = list(
                zip(*(self.column(i) for i in range(width))))
        return rows


def _latin1(b: bytes) -> str:
    return b.decode("latin-1")


def make_batch_decoder(packet_type: T.TupleType) -> BatchDecoder:
    """Compile the struct-of-arrays decoder for one packet type.

    The generated ``_soa`` function decodes a run of packets that all
    matched this type into raw parallel columns:

    * header columns are plain attribute list-comprehensions;
    * with no tail view, every payload has exactly ``fixed`` bytes
      (:meth:`Layout.admits`), so all fixed fields of the whole
      batch decode in a single ``Struct.iter_unpack`` over the joined
      payloads — a stride-count guard turns non-compensating payload
      corruption into a :class:`CodecError` instead of silent row
      misalignment;
    * with a tail view, payload lengths vary, so fixed fields use one
      ``unpack_from`` per packet and the tail is a slice column.

    Value conversions (``chr``, ``bool``, :class:`HostAddr`, latin-1)
    are *not* applied here — they belong to :meth:`PacketBatch.column`.
    """
    lay = layout(packet_type)
    transport, views, fixed = lay.transport, lay.views, lay.fixed
    fixed_views = [v for v in views if v in _FIXED_SIZES]
    width = 1 + (1 if transport is not None else 0) + len(views)

    lines = ["def _soa(_pk):"]
    empty = ", ".join("[]" for _ in range(width))
    comma = "," if width == 1 else ""
    lines.append("    if not _pk:")
    lines.append(f"        return ({empty}{comma})")
    cols = ["_ip"]
    lines.append("    _ip = [_p.ip for _p in _pk]")
    if transport is not None:
        lines.append("    _tr = [_p.transport for _p in _pk]")
        cols.append("_tr")
    if fixed_views:
        if lay.has_tail:
            lines.append("    try:")
            lines.append("        _ts = [_unpack(_p.payload) "
                         "for _p in _pk]")
            lines.append("    except _StructError:")
            lines.append("        raise CodecError("
                         '"batch payload shorter than the fixed views") '
                         "from None")
        else:
            # Compensating corruption (one payload short, another long)
            # keeps the joined length a stride multiple, so the
            # iter_unpack row count alone cannot be trusted: check every
            # payload length up front (n int compares per batch).
            lines.append(f"    if any(len(_p.payload) != {fixed} "
                         "for _p in _pk):")
            lines.append("        raise CodecError("
                         '"batch payload stride mismatch")')
            lines.append("    try:")
            lines.append('        _ts = list(_iter_unpack(b"".join('
                         "[_p.payload for _p in _pk])))")
            lines.append("    except _StructError:")
            lines.append("        raise CodecError("
                         '"batch payload stride mismatch") from None')
        if len(fixed_views) == 1:
            lines.append("    _f0 = [_t[0] for _t in _ts]")
        else:
            lines.append("    _fx = list(zip(*_ts))")
            for k in range(len(fixed_views)):
                lines.append(f"    _f{k} = list(_fx[{k}])")
        cols.extend(f"_f{k}" for k in range(len(fixed_views)))
    if lay.has_tail:
        if fixed:
            lines.append(f"    _tl = [_p.payload[{fixed}:] for _p in _pk]")
        else:
            lines.append("    _tl = [_p.payload for _p in _pk]")
        cols.append("_tl")
    lines.append(f"    return ({', '.join(cols)}{comma})")

    namespace: dict[str, object] = {"CodecError": CodecError,
                                    "_StructError": struct.error}
    if fixed_views:
        fmt = ">" + "".join(_STRUCT_FMT[v] for v in fixed_views)
        packer = struct.Struct(fmt)
        namespace["_unpack"] = packer.unpack_from
        namespace["_iter_unpack"] = packer.iter_unpack
    exec(compile("\n".join(lines), "<batch-decoder>", "exec"), namespace)

    conv_of = {T.CHAR: chr, T.BOOL: bool, T.INT: None, T.HOST: HostAddr,
               T.BLOB: None, T.STRING: _latin1}
    convs: list = [None]
    if transport is not None:
        convs.append(None)
    convs.extend(conv_of[v] for v in fixed_views)
    if lay.has_tail:
        convs.append(conv_of[views[-1]])
    return BatchDecoder(width, namespace["_soa"], convs)


def decode(packet: Packet, packet_type: T.TupleType) -> tuple:
    """Build the PLAN-P packet value a channel receives.

    Raises :class:`CodecError` when the packet does not fit the type —
    wrong transport header, truncated payload, or a tail-less layout
    whose payload length is not exactly the fixed view size.
    """
    lay = layout(packet_type)
    if not isinstance(packet.transport, lay.transport_cls):
        if lay.transport is None:
            raise CodecError(f"packet carries a transport header but "
                             f"{packet_type} is raw")
        raise CodecError(
            f"packet has no {lay.transport_name} header for {packet_type}")
    _check_payload_len(len(packet.payload), lay)
    parts: list[object] = [packet.ip]
    if lay.transport is not None:
        parts.append(packet.transport)
    offset = 0
    payload = packet.payload
    for view in lay.views:
        if view == T.BLOB:
            parts.append(payload[offset:])
            offset = len(payload)
        elif view == T.STRING:
            parts.append(payload[offset:].decode("latin-1"))
            offset = len(payload)
        elif view == T.CHAR:
            parts.append(chr(payload[offset]))
            offset += 1
        elif view == T.BOOL:
            parts.append(payload[offset] != 0)
            offset += 1
        elif view == T.INT:
            parts.append(int.from_bytes(payload[offset:offset + 4], "big",
                                        signed=True))
            offset += 4
        elif view == T.HOST:
            parts.append(HostAddr(int.from_bytes(
                payload[offset:offset + 4], "big")))
            offset += 4
    return tuple(parts)


def encode(value: tuple, *, channel: str | None = None,
           created_at: float = 0.0) -> Packet:
    """Build a wire packet from a PLAN-P packet value.

    The layout is recovered from the runtime types of the components, so
    any well-typed channel emission encodes without extra metadata.  A
    sole blob view *is* the payload: it goes out as the object it came
    in as, untouched.
    """
    if not value or not isinstance(value[0], IpHeader):
        raise CodecError(f"packet value must start with an ip header, "
                         f"got {value!r}")
    ip = value[0]
    n = len(value)
    transport = value[1] if n > 1 else None
    proto = TRANSPORT_PROTO.get(transport.__class__)
    if proto is None:
        transport, proto, first = None, PROTO_RAW, 1
    else:
        first = 2
    if ip.proto != proto:
        ip = IpHeader(ip.src, ip.dst, ip.ttl, proto, ip.tos)
    if n == first + 1 and value[first].__class__ is bytes:
        payload = value[first]
    else:
        chunks: list[bytes] = []
        for part in value[first:]:
            if isinstance(part, bytes):
                chunks.append(part)
            elif isinstance(part, bool):
                chunks.append(b"\x01" if part else b"\x00")
            elif isinstance(part, int):
                try:
                    chunks.append(int(part).to_bytes(4, "big", signed=True))
                except OverflowError:
                    raise CodecError(
                        f"int {part} does not fit the 4-byte wire "
                        f"encoding") from None
            elif isinstance(part, str):
                chunks.append(part.encode("latin-1", errors="replace"))
            elif isinstance(part, HostAddr):
                chunks.append(part.value.to_bytes(4, "big"))
            else:
                raise CodecError(
                    f"cannot encode {type(part).__name__} into a payload")
        payload = b"".join(chunks)
    return Packet(ip, transport, payload, channel, next_uid(), created_at)
