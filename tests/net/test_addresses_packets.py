"""Address and packet model tests."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import (ANY_ADDR, BROADCAST_ADDR,
                                 AddressAllocator, HostAddr, addr)
from repro.net.packet import (DEFAULT_TTL, IpHeader, Packet, TcpHeader,
                              UdpHeader, tcp_packet, udp_packet)


class TestHostAddr:
    def test_parse_and_str_roundtrip(self):
        assert str(HostAddr.parse("131.254.60.81")) == "131.254.60.81"

    @given(st.integers(0, 0xFFFFFFFF))
    def test_parse_str_roundtrip_property(self, value):
        a = HostAddr(value)
        assert HostAddr.parse(str(a)) == a

    def test_parse_rejects_bad_input(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                HostAddr.parse(bad)

    def test_multicast_detection(self):
        assert HostAddr.parse("224.0.0.1").is_multicast
        assert HostAddr.parse("239.255.255.255").is_multicast
        assert not HostAddr.parse("223.255.255.255").is_multicast
        assert not HostAddr.parse("10.0.0.1").is_multicast

    def test_broadcast(self):
        assert BROADCAST_ADDR.is_broadcast
        assert not ANY_ADDR.is_broadcast

    def test_ordering_and_hash(self):
        a, b = HostAddr(1), HostAddr(2)
        assert a < b
        assert len({HostAddr(1), HostAddr(1)}) == 1

    def test_addr_helper(self):
        assert addr("1.2.3.4") == addr(0x01020304)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            HostAddr(-1)


class TestAddressAllocator:
    def test_unique_addresses(self):
        alloc = AddressAllocator()
        net1 = alloc.new_subnet()
        net2 = alloc.new_subnet()
        addrs = [alloc.new_host(net1), alloc.new_host(net1),
                 alloc.new_host(net2)]
        assert len(set(addrs)) == 3

    def test_readable_layout(self):
        alloc = AddressAllocator("10.0.0.0")
        net = alloc.new_subnet()
        assert str(alloc.new_host(net)) == "10.0.1.1"
        assert str(alloc.new_host(net)) == "10.0.1.2"

    def test_unknown_subnet_rejected(self):
        with pytest.raises(ValueError):
            AddressAllocator().new_host(42)


class TestHeaders:
    def test_functional_updates(self):
        ip = IpHeader(src=addr("1.1.1.1"), dst=addr("2.2.2.2"))
        assert str(ip.with_dst(addr("3.3.3.3")).dst) == "3.3.3.3"
        assert str(ip.dst) == "2.2.2.2"

    def test_decremented(self):
        ip = IpHeader(ttl=5)
        assert ip.decremented().ttl == 4

    def test_swapped(self):
        ip = IpHeader(src=addr("1.1.1.1"), dst=addr("2.2.2.2")).swapped()
        assert (str(ip.src), str(ip.dst)) == ("2.2.2.2", "1.1.1.1")

    def test_udp_swap(self):
        u = UdpHeader(src_port=1, dst_port=2).swapped()
        assert (u.src_port, u.dst_port) == (2, 1)

    def test_every_update_helper_equals_a_field_replace(self):
        # The helpers call the constructor directly; pin them, field
        # for field, to the generic replace they stand in for.
        other = addr("9.9.9.9")
        ip = IpHeader(src=addr("1.1.1.1"), dst=addr("2.2.2.2"), ttl=17,
                      proto=17, tos=3)
        tcp = TcpHeader(src_port=1234, dst_port=80, seq=7, ack=9, syn=True,
                        fin=True, ack_flag=True, rst=True, window=4096)
        udp = UdpHeader(src_port=5000, dst_port=53)
        cases = [
            (ip.with_dst(other), replace(ip, dst=other)),
            (ip.with_src(other), replace(ip, src=other)),
            (ip.decremented(), replace(ip, ttl=16)),
            (ip.swapped(), replace(ip, src=ip.dst, dst=ip.src)),
            (tcp.with_dst_port(8080), replace(tcp, dst_port=8080)),
            (tcp.with_src_port(4321), replace(tcp, src_port=4321)),
            (tcp.swapped(), replace(tcp, src_port=80, dst_port=1234)),
            (udp.with_dst_port(54), replace(udp, dst_port=54)),
            (udp.with_src_port(5001), replace(udp, src_port=5001)),
            (udp.swapped(), replace(udp, src_port=53, dst_port=5000)),
        ]
        for got, want in cases:
            assert type(got) is type(want)
            assert got == want
        with pytest.raises(AttributeError):
            ip.decremented().ttl = 1  # still frozen


class TestPacket:
    def test_size_includes_headers(self):
        p = udp_packet(addr("1.1.1.1"), addr("2.2.2.2"), 1, 2, b"x" * 10)
        assert p.size == 20 + 8 + 10
        t = tcp_packet(addr("1.1.1.1"), addr("2.2.2.2"), 1, 2, b"x" * 10)
        assert t.size == 20 + 20 + 10

    def test_proto_fixed_from_transport(self):
        p = Packet(ip=IpHeader(), transport=UdpHeader())
        assert p.ip.proto == 17
        t = Packet(ip=IpHeader(), transport=TcpHeader())
        assert t.ip.proto == 6

    def test_uids_unique(self):
        a = udp_packet(ANY_ADDR, ANY_ADDR, 0, 0, b"")
        b = udp_packet(ANY_ADDR, ANY_ADDR, 0, 0, b"")
        assert a.uid != b.uid

    def test_copy_tracks_provenance(self):
        a = udp_packet(ANY_ADDR, ANY_ADDR, 0, 0, b"data")
        c = a.copy()
        assert c.uid != a.uid
        assert c.copied_from == a.uid
        assert c.payload == a.payload

    def test_hop_decrements_ttl(self):
        a = udp_packet(ANY_ADDR, ANY_ADDR, 0, 0, b"")
        assert a.hop().ip.ttl == DEFAULT_TTL - 1
        assert a.ip.ttl == DEFAULT_TTL

    def test_hop_equals_a_field_replace(self):
        a = replace(tcp_packet(addr("1.1.1.1"), addr("2.2.2.2"), 1, 2,
                               b"body", seq=5), channel="chan").copy()
        a.created_at = 1.25
        hopped = a.hop()
        # Dataclass equality covers every field: uid, copied_from and
        # created_at ride along unchanged.
        assert hopped == replace(a, ip=replace(a.ip, ttl=a.ip.ttl - 1))
        assert (hopped.uid, hopped.copied_from) == (a.uid, a.copied_from)
        assert hopped.transport is a.transport
        assert hopped.payload is a.payload

    def test_hop_still_runs_post_init(self):
        a = Packet(ip=IpHeader(), transport=UdpHeader())
        a.ip = IpHeader(ttl=9)  # reassigned with the raw default proto
        assert a.hop().ip == IpHeader(ttl=8, proto=17)

    def test_default_ttl(self):
        assert udp_packet(ANY_ADDR, ANY_ADDR, 0, 0, b"").ip.ttl == 64
