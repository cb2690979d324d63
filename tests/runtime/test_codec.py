"""Wire codec tests: packet-type matching, decode, encode."""

import pytest

from repro.analysis.wire import wire_summary
from repro.fuzz.grammar import PACKET_TYPES
from repro.lang import parse, typecheck
from repro.lang import types as T
from repro.net.addresses import HostAddr
from repro.net.packet import (IpHeader, Packet, TcpHeader, UdpHeader,
                              tcp_packet, udp_packet)
from repro.runtime import codec

TCP_BLOB = T.TupleType((T.IP, T.TCP, T.BLOB))
UDP_BLOB = T.TupleType((T.IP, T.UDP, T.BLOB))
TCP_CHAR_INT = T.TupleType((T.IP, T.TCP, T.CHAR, T.INT))
UDP_HOST_INT = T.TupleType((T.IP, T.UDP, T.HOST, T.INT))


def tcp_pkt(payload=b"data"):
    return tcp_packet(HostAddr.parse("1.1.1.1"),
                      HostAddr.parse("2.2.2.2"), 10, 80, payload)


class TestLayout:
    """One derivation of the layout facts, three readers that must
    agree on them: ``codec.layout`` itself, the install-time
    ``DispatchPlan`` and the wire analysis' ``OverloadShape``."""

    @pytest.mark.parametrize("packet_type", PACKET_TYPES)
    def test_layout_plan_and_wire_shape_admit_alike(self, packet_type):
        info = typecheck(parse(
            f"channel network(ps : int, ss : unit, p : {packet_type}) is "
            "(ps, ss)"))
        ty = info.channels["network"][0].packet_type
        lay = codec.layout(ty)
        plan = codec.dispatch_plan(ty)
        shape = wire_summary(info).channel("network").shapes[0]
        assert plan.transport_cls is lay.transport_cls
        assert (shape.transport, shape.fixed, shape.has_tail) == (
            lay.transport_name, lay.fixed, lay.has_tail)
        assert shape.views == tuple(str(v) for v in lay.views)
        for n in (lay.fixed - 1, lay.fixed, lay.fixed + 1):
            if n < 0:
                continue
            expected = n >= lay.fixed if lay.has_tail else n == lay.fixed
            assert lay.admits(n) == plan.admits(n) == shape.admits(n) \
                == expected
            packet = Packet(ip=IpHeader(), payload=bytes(n),
                            transport=lay.transport_cls())
            assert codec.matches(packet, ty) == expected

    def test_malformed_type_has_no_layout(self):
        bad = T.TupleType((T.IP, T.BLOB, T.INT))
        with pytest.raises(codec.CodecError, match="final"):
            codec.layout(bad)
        assert codec.dispatch_plan(bad) is None


class TestMatching:
    def test_transport_must_match(self):
        assert codec.matches(tcp_pkt(), TCP_BLOB)
        assert not codec.matches(tcp_pkt(), UDP_BLOB)

    def test_raw_type_needs_raw_packet(self):
        raw_type = T.TupleType((T.IP, T.BLOB))
        raw = Packet(ip=IpHeader(), payload=b"x")
        assert codec.matches(raw, raw_type)
        assert not codec.matches(tcp_pkt(), raw_type)

    def test_fixed_views_need_enough_payload(self):
        assert codec.matches(tcp_pkt(b"A" + bytes(4)), TCP_CHAR_INT)
        assert not codec.matches(tcp_pkt(b"A"), TCP_CHAR_INT)

    def test_fixed_views_without_tail_need_exact_length(self):
        assert not codec.matches(tcp_pkt(b"A" + bytes(5)), TCP_CHAR_INT)

    def test_blob_tail_accepts_any_residue(self):
        ty = T.TupleType((T.IP, T.TCP, T.CHAR, T.BLOB))
        assert codec.matches(tcp_pkt(b"Xrest-of-payload"), ty)
        assert codec.matches(tcp_pkt(b"X"), ty)
        assert not codec.matches(tcp_pkt(b""), ty)

    def test_blob_must_be_final(self):
        bad = T.TupleType((T.IP, T.TCP, T.BLOB, T.INT))
        assert not codec.matches(tcp_pkt(), bad)
        with pytest.raises(codec.CodecError, match="final"):
            codec.packet_views(bad)


class TestDecode:
    def test_blob_view(self):
        value = codec.decode(tcp_pkt(b"payload"), TCP_BLOB)
        assert value[0] == tcp_pkt().ip
        assert isinstance(value[1], TcpHeader)
        assert value[2] == b"payload"

    def test_char_int_views(self):
        payload = b"K" + (1234).to_bytes(4, "big")
        value = codec.decode(tcp_pkt(payload), TCP_CHAR_INT)
        assert value[2] == "K"
        assert value[3] == 1234

    def test_negative_int_view(self):
        payload = b"K" + (-5 & 0xFFFFFFFF).to_bytes(4, "big")
        value = codec.decode(tcp_pkt(payload), TCP_CHAR_INT)
        assert value[3] == -5

    def test_host_view(self):
        addr = HostAddr.parse("9.8.7.6")
        payload = addr.value.to_bytes(4, "big") + (9000).to_bytes(4, "big")
        pkt = udp_packet(HostAddr.parse("1.1.1.1"),
                         HostAddr.parse("2.2.2.2"), 1, 2, payload)
        value = codec.decode(pkt, UDP_HOST_INT)
        assert value[2] == addr
        assert value[3] == 9000

    def test_string_view(self):
        ty = T.TupleType((T.IP, T.UDP, T.STRING))
        pkt = udp_packet(HostAddr.parse("1.1.1.1"),
                         HostAddr.parse("2.2.2.2"), 1, 2, b"QRY movie")
        assert codec.decode(pkt, ty)[2] == "QRY movie"


class TestEncode:
    def test_roundtrip_blob(self):
        pkt = tcp_pkt(b"hello")
        value = codec.decode(pkt, TCP_BLOB)
        again = codec.encode(value)
        assert again.ip == pkt.ip
        assert again.transport == pkt.transport
        assert again.payload == pkt.payload

    def test_roundtrip_views(self):
        payload = b"Z" + (77).to_bytes(4, "big")
        pkt = tcp_pkt(payload)
        value = codec.decode(pkt, TCP_CHAR_INT)
        assert codec.encode(value).payload == payload

    def test_proto_fixed_on_header_swap(self):
        # Build a value whose ip proto says TCP but transport is UDP.
        ip = IpHeader(proto=6)
        value = (ip, UdpHeader(src_port=1, dst_port=2), b"x")
        packet = codec.encode(value)
        assert packet.ip.proto == 17

    def test_channel_tag_attached(self):
        value = codec.decode(tcp_pkt(), TCP_BLOB)
        packet = codec.encode(value, channel="mychan")
        assert packet.channel == "mychan"

    def test_string_and_bool_encoding(self):
        value = (IpHeader(), UdpHeader(), True, "hi")
        packet = codec.encode(value)
        assert packet.payload == b"\x01hi"

    def test_bad_leading_value_rejected(self):
        with pytest.raises(codec.CodecError, match="ip header"):
            codec.encode((42, b"x"))

    def test_unencodable_component_rejected(self):
        with pytest.raises(codec.CodecError, match="cannot encode"):
            codec.encode((IpHeader(), UdpHeader(), object()))
