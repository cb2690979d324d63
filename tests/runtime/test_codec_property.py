"""Property tests: wire codec round-trips for arbitrary packet shapes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz.grammar import PACKET_TYPES
from repro.lang import parse, typecheck
from repro.lang import types as T
from repro.net.addresses import HostAddr
from repro.net.packet import IpHeader, Packet, TcpHeader, UdpHeader
from repro.runtime import codec

addresses = st.integers(0, 0xFFFFFFFF).map(HostAddr)
ports = st.integers(0, 65535)

def ip_headers(proto: int):
    return st.builds(IpHeader, src=addresses, dst=addresses,
                     ttl=st.integers(1, 64), proto=st.just(proto))


tcp_ip = ip_headers(6)
udp_ip = ip_headers(17)
tcp_headers = st.builds(TcpHeader, src_port=ports, dst_port=ports,
                        seq=st.integers(0, 2**31), syn=st.booleans(),
                        fin=st.booleans())
udp_headers = st.builds(UdpHeader, src_port=ports, dst_port=ports)

payloads = st.binary(max_size=200)

#: (packet type, value strategy) pairs covering the view system.
SHAPES = [
    (T.TupleType((T.IP, T.TCP, T.BLOB)),
     st.tuples(tcp_ip, tcp_headers, payloads)),
    (T.TupleType((T.IP, T.UDP, T.BLOB)),
     st.tuples(udp_ip, udp_headers, payloads)),
    (T.TupleType((T.IP, T.TCP, T.CHAR, T.INT)),
     st.tuples(tcp_ip, tcp_headers,
               st.integers(0, 255).map(chr),
               st.integers(-2**31, 2**31 - 1))),
    (T.TupleType((T.IP, T.UDP, T.HOST, T.INT)),
     st.tuples(udp_ip, udp_headers, addresses,
               st.integers(-2**31, 2**31 - 1))),
    (T.TupleType((T.IP, T.UDP, T.BOOL, T.BLOB)),
     st.tuples(udp_ip, udp_headers, st.booleans(), payloads)),
]


@st.composite
def shaped_values(draw):
    ty, strategy = draw(st.sampled_from(SHAPES))
    return ty, draw(strategy)


@given(shaped_values())
@settings(max_examples=150, deadline=None)
def test_encode_decode_roundtrip(shape):
    """decode(encode(v)) == v for any well-typed packet value."""
    ty, value = shape
    packet = codec.encode(value)
    assert codec.matches(packet, ty)
    again = codec.decode(packet, ty)
    assert again == value


@given(shaped_values())
@settings(max_examples=100, deadline=None)
def test_encode_sets_consistent_proto(shape):
    _ty, value = shape
    packet = codec.encode(value)
    if isinstance(packet.transport, TcpHeader):
        assert packet.ip.proto == 6
    elif isinstance(packet.transport, UdpHeader):
        assert packet.ip.proto == 17


@given(st.binary(max_size=64))
@settings(max_examples=80, deadline=None)
def test_matching_is_total(raw):
    """matches() never crashes on arbitrary payload bytes."""
    packet = codec.encode((IpHeader(), UdpHeader(), raw))
    for ty, _strategy in SHAPES:
        codec.matches(packet, ty)  # must not raise


# ---------------------------------------------------------------------------
# The ASP catalog's wire contract
# ---------------------------------------------------------------------------

#: Max tail exercised by the boundary tests — a 64 KiB payload is far
#: beyond anything the experiments ship but must still round-trip.
MAX_TAIL = 64 * 1024

#: latin-1 is the wire's string charset; stay within it so the
#: round-trip is exact (encode uses errors="replace" beyond it).
_latin1_text = st.text(
    alphabet=st.characters(min_codepoint=0, max_codepoint=255),
    max_size=64)


def catalog_packet_types():
    """Every packet type declared by any catalog ASP, derived from the
    ASP sources themselves so new catalog entries are picked up."""
    from repro import asps
    sources = [
        asps.audio_router_asp(),
        asps.audio_client_asp(),
        asps.http_gateway_asp("10.0.0.1", ["10.0.0.2", "10.0.0.3"]),
        asps.image_distiller_asp(),
        asps.mpeg_monitor_asp(),
        asps.mpeg_client_asp(),
        asps.firewall_asp([23, 2049]),
        asps.content_filter_asp("X", "10.0.0.9"),
        asps.link_compressor_asp(app_port=7000),
        asps.link_decompressor_asp(app_port=7000),
    ]
    types = {}
    for source in sources:
        for decl in typecheck(parse(source)).all_channels():
            types[str(decl.packet_type)] = decl.packet_type
    return [types[key] for key in sorted(types)]


CATALOG_TYPES = catalog_packet_types()


def _view_strategy(view):
    if view == T.INT:
        return st.integers(-2**31, 2**31 - 1)
    if view == T.HOST:
        return addresses
    if view == T.CHAR:
        return st.integers(0, 255).map(chr)
    if view == T.BOOL:
        return st.booleans()
    if view == T.STRING:
        return _latin1_text
    return payloads  # blob


def _shape_strategy(packet_type):
    transport, views = codec.packet_views(packet_type)
    if transport == T.TCP:
        parts = [tcp_ip, tcp_headers]
    else:
        parts = [udp_ip, udp_headers]
    parts.extend(_view_strategy(v) for v in views)
    return st.tuples(*parts)


@st.composite
def catalog_values(draw):
    ty = draw(st.sampled_from(CATALOG_TYPES))
    return ty, draw(_shape_strategy(ty))


@given(catalog_values())
@settings(max_examples=200, deadline=None)
def test_catalog_roundtrip(shape):
    """decode(encode(v)) == v for every packet type any catalog ASP
    (audio, http, images, mpeg, filters) declares — through the generic
    decoder AND the compiled per-type dispatch plan."""
    ty, value = shape
    packet = codec.encode(value)
    assert codec.matches(packet, ty)
    assert codec.decode(packet, ty) == value
    plan = codec.dispatch_plan(ty)
    assert plan.admits(len(packet.payload))
    assert plan.decode(packet) == value


def _boundary_value(packet_type, tail):
    """A deterministic value for one catalog type with a chosen tail."""
    transport, views = codec.packet_views(packet_type)
    if transport == T.TCP:
        parts = [IpHeader(src=HostAddr(0x0A000001),
                          dst=HostAddr(0x0A000002), proto=6),
                 TcpHeader(src_port=1234, dst_port=80)]
    else:
        parts = [IpHeader(src=HostAddr(0x0A000001),
                          dst=HostAddr(0x0A000002), proto=17),
                 UdpHeader(src_port=1234, dst_port=7)]
    for view in views:
        if view == T.INT:
            parts.append(-1)
        elif view == T.HOST:
            parts.append(HostAddr(0xFFFFFFFF))
        elif view == T.CHAR:
            parts.append("\xff")
        elif view == T.BOOL:
            parts.append(True)
        elif view == T.STRING:
            parts.append(tail.decode("latin-1"))
        else:
            parts.append(tail)
    return tuple(parts)


def test_catalog_empty_and_max_tails():
    """The boundary payloads — empty tail and a 64 KiB tail — round-trip
    for every catalog packet type (fixed layouts like ip*udp*host*int
    have nothing to vary, so one canonical value covers them)."""
    for ty in CATALOG_TYPES:
        _transport, views = codec.packet_views(ty)
        if views and views[-1] in (T.BLOB, T.STRING):
            tails = (b"", b"\x00", bytes(range(256)) * (MAX_TAIL // 256))
        else:
            tails = (b"",)  # no tail view; _boundary_value ignores it
        for tail in tails:
            value = _boundary_value(ty, tail)
            packet = codec.encode(value)
            assert codec.decode(packet, ty) == value
            assert codec.dispatch_plan(ty).decode(packet) == value


# ---------------------------------------------------------------------------
# The compiled per-layout decoder against the reference ``codec.decode``
# ---------------------------------------------------------------------------


def _grammar_type(text):
    return typecheck(parse(
        f"channel network(ps : int, ss : unit, p : {text}) is (ps, ss)"
    )).channels["network"][0].packet_type


#: every layout the fuzz grammar emits: raw/tcp/udp, tail and tail-less,
#: each fixed view kind
GRAMMAR_TYPES = [_grammar_type(text) for text in PACKET_TYPES]


def _decoded_or_error(decode, packet):
    try:
        return decode(packet)
    except codec.CodecError as err:
        return str(err)


@pytest.mark.parametrize("ty", GRAMMAR_TYPES, ids=PACKET_TYPES)
def test_compiled_decoder_equals_reference(ty):
    """Exact, truncated and over-long payloads: the same value tuple or
    the same ``CodecError`` text, byte for byte."""
    lay = codec.layout(ty)
    compiled = codec.make_decoder(ty)
    lengths = sorted({*range(lay.fixed + 1), lay.fixed + 1, lay.fixed + 9})

    @given(st.sampled_from(lengths).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)))
    @settings(max_examples=60, deadline=None)
    def check(payload):
        packet = Packet(IpHeader(), lay.transport_cls(), payload)
        want = _decoded_or_error(lambda p: codec.decode(p, ty), packet)
        assert _decoded_or_error(compiled, packet) == want
        assert isinstance(want, str) != lay.admits(len(payload))

    check()


@pytest.mark.parametrize("ty", GRAMMAR_TYPES, ids=PACKET_TYPES)
def test_encode_of_decode_keeps_the_payload(ty):
    """``encode(decode(p))`` is ``p`` on the wire again — and where the
    layout's only view is a blob, it carries the very payload object:
    nothing was sliced, joined or copied on the way through."""
    lay = codec.layout(ty)
    payload = bytes(range(40, 40 + lay.fixed + (7 if lay.has_tail else 0)))
    if T.BOOL in lay.views:  # any non-zero byte decodes true, encodes 1
        at = sum(codec._FIXED_SIZES[v]
                 for v in lay.views[:lay.views.index(T.BOOL)])
        payload = payload[:at] + b"\x01" + payload[at + 1:]
    packet = Packet(IpHeader(), lay.transport_cls(), payload)
    again = codec.encode(codec.make_decoder(ty)(packet))
    assert (again.ip, again.transport, again.payload) == (
        packet.ip, packet.transport, packet.payload)
    if lay.views == (T.BLOB,):
        assert again.payload is packet.payload
