"""Codec error-taxonomy regressions: every malformed-input path raises
:class:`CodecError` — never ``struct.error``, ``IndexError``,
``ValueError``, or ``OverflowError`` — so the PlanPLayer containment
boundary (which catches ``(PlanPError, CodecError)``) holds.

Each test pins one path found in the ISSUE-7 audit:

* ``decode`` on a truncated payload used to short-slice ints silently
  (``int.from_bytes`` accepts 2 of 4 bytes) and leak ``IndexError`` from
  ``chr`` on a missing char byte;
* ``make_decoder`` closures had no length guard at all;
* ``make_batch_decoder`` leaked ``struct.error`` from ``unpack_from`` on
  a short payload (tail layouts) and from ``iter_unpack`` when the
  joined payload length was not a stride multiple (tail-less layouts);
* ``encode`` leaked ``OverflowError`` for ints outside signed 32-bit —
  a PLAN-P program emitting ``2147483647 + 1`` took the node down.
"""

import pytest

from repro.lang import types as T
from repro.net import Network
from repro.net.addresses import HostAddr
from repro.net.packet import (PROTO_RAW, PROTO_TCP, IpHeader, Packet,
                              TcpHeader, tcp_packet)
from repro.runtime import PlanPLayer, codec
from repro.runtime.codec import CodecError


def _ty(*names):
    return T.TupleType(tuple(getattr(T, n.upper()) for n in names))


_IP = IpHeader(src=HostAddr(1), dst=HostAddr(2), ttl=8, proto=PROTO_TCP)
_TCP = TcpHeader(src_port=1000, dst_port=80)


def _pkt(payload, *, transport=_TCP, proto=PROTO_TCP):
    ip = IpHeader(src=_IP.src, dst=_IP.dst, ttl=_IP.ttl, proto=proto)
    return Packet(ip=ip, transport=transport, payload=payload)


class TestDecode:
    def test_truncated_int_view(self):
        with pytest.raises(CodecError, match="shorter than"):
            codec.decode(_pkt(b"\x01\x02"), _ty("ip", "tcp", "int"))

    def test_missing_char_byte(self):
        with pytest.raises(CodecError, match="shorter than"):
            codec.decode(_pkt(b""), _ty("ip", "tcp", "char", "blob"))

    def test_tailless_length_mismatch(self):
        with pytest.raises(CodecError, match="does not match the exact"):
            codec.decode(_pkt(b"\0" * 5), _ty("ip", "tcp", "int"))

    def test_wrong_transport(self):
        with pytest.raises(CodecError, match="no udp header"):
            codec.decode(_pkt(b""), _ty("ip", "udp", "blob"))

    def test_raw_type_rejects_transport_header(self):
        with pytest.raises(CodecError, match="is raw"):
            codec.decode(_pkt(b""), _ty("ip", "blob"))

    def test_exact_payload_still_decodes(self):
        value = codec.decode(_pkt(b"\x00\x00\x00\x07"),
                             _ty("ip", "tcp", "int"))
        assert value[2] == 7


class TestMakeDecoder:
    def test_truncated_payload(self):
        dec = codec.make_decoder(_ty("ip", "tcp", "int", "blob"))
        with pytest.raises(CodecError, match="shorter than"):
            dec(_pkt(b"\x01"))

    def test_tailless_oversize_payload(self):
        dec = codec.make_decoder(_ty("ip", "tcp", "bool"))
        with pytest.raises(CodecError, match="does not match the exact"):
            dec(_pkt(b"\x01\x02"))

    def test_raw_layout_guarded_too(self):
        dec = codec.make_decoder(_ty("ip", "int"))
        with pytest.raises(CodecError, match="shorter than"):
            dec(_pkt(b"\x00", transport=None, proto=PROTO_RAW))

    def test_one_decoder_per_layout(self):
        """Equal layouts share one compiled function (a deployment asks
        once per overload per node per install); different ones do
        not."""
        dec = codec.make_decoder(_ty("ip", "tcp", "int", "blob"))
        assert codec.make_decoder(_ty("ip", "tcp", "int", "blob")) is dec
        assert codec.dispatch_plan(
            _ty("ip", "tcp", "int", "blob")).decode is dec
        assert codec.make_decoder(_ty("ip", "udp", "int", "blob")) is not dec
        assert codec.make_decoder(_ty("ip", "tcp", "int")) is not dec


class TestBatchDecoder:
    def test_tail_layout_short_payload(self):
        bd = codec.make_batch_decoder(_ty("ip", "tcp", "int", "blob"))
        batch = bd.batch([_pkt(b"\x00\x00\x00\x01full"), _pkt(b"\x00")])
        with pytest.raises(CodecError, match="shorter than the fixed"):
            batch.soa()

    def test_tailless_stride_mismatch(self):
        bd = codec.make_batch_decoder(_ty("ip", "tcp", "int"))
        batch = bd.batch([_pkt(b"\x00\x00\x00\x01"), _pkt(b"\x00\x00")])
        with pytest.raises(CodecError, match="stride mismatch"):
            batch.soa()

    def test_tailless_count_mismatch(self):
        # Compensating corruption: joined length is a stride multiple
        # but packet count disagrees — the count guard catches it.
        bd = codec.make_batch_decoder(_ty("ip", "tcp", "int"))
        batch = bd.batch([_pkt(b"\x00" * 8), _pkt(b"")])
        with pytest.raises(CodecError, match="stride mismatch"):
            batch.soa()

    def test_clean_batch_still_decodes(self):
        bd = codec.make_batch_decoder(_ty("ip", "tcp", "int", "blob"))
        batch = bd.batch([_pkt(b"\x00\x00\x00\x05hi"),
                          _pkt(b"\x00\x00\x00\x06yo")])
        assert batch.column(2) == [5, 6]
        assert batch.column(3) == [b"hi", b"yo"]


class TestEncode:
    @pytest.mark.parametrize("n", [2 ** 31, -(2 ** 31) - 1, 2 ** 63])
    def test_int_overflow(self, n):
        with pytest.raises(CodecError, match="4-byte wire encoding"):
            codec.encode((_IP, _TCP, n))

    def test_boundary_ints_fit(self):
        for n in (2 ** 31 - 1, -(2 ** 31), 0):
            pkt = codec.encode((_IP, _TCP, n))
            assert codec.decode(pkt, _ty("ip", "tcp", "int"))[2] == n


_OVERFLOWER = """
channel network(ps : int, ss : unit, p : ip*tcp*int) is
  (OnRemote(network, (#1 p, #2 p, (#3 p) + 2147483647)); (ps + 1, ss))
"""


def test_layer_contains_encode_overflow():
    """End-to-end: a program emitting an un-encodable int must be
    contained as a runtime error, not take the node down."""
    net = Network(seed=5)
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    net.link(a, r)
    net.link(r, b)
    net.finalize()
    layer = PlanPLayer(r)
    layer.install(_OVERFLOWER, verify=False)
    got = []
    b.delivery_taps.append(lambda p: got.append(p))
    # decodes as int=1; 1 + 2147483647 = 2**31 overflows the encoder
    pkt = tcp_packet(a.address, b.address, 1, 80, b"\x00\x00\x00\x01")

    def fire():
        assert layer.wants(pkt, None)
        layer.process(pkt, None)
    net.sim.schedule(0.0, fire)
    net.sim.run()
    assert r.up
    assert layer.stats.runtime_errors == 1
    # contained → standard-IP fallback forwarded the original packet
    assert len(got) == 1
