"""Compression / filtering / firewall ASP tests (paper §1 operations)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asps import (content_filter_asp, firewall_asp,
                        link_compressor_asp, link_decompressor_asp)
from repro.interp import RecordingContext
from repro.interp.primitives import PRIMITIVES
from repro.lang import PlanPRuntimeError
from repro.net import Network
from repro.net.packet import tcp_packet
from repro.runtime import Deployment, PlanPLayer


def call(name, *args):
    return PRIMITIVES[name].impl(RecordingContext(), list(args))


class TestCompressionPrimitives:
    def test_roundtrip(self):
        data = b"the quick brown fox " * 20
        assert call("blobDecompress", call("blobCompress", data)) == data

    def test_compression_shrinks_redundant_data(self):
        data = b"A" * 1000
        assert len(call("blobCompress", data)) < 50

    def test_decompress_garbage_raises(self):
        with pytest.raises(PlanPRuntimeError) as err:
            call("blobDecompress", b"not deflate")
        assert err.value.exception_name == "BadPacket"

    def test_is_compressed_detection(self):
        assert call("blobIsCompressed", call("blobCompress", b"xy" * 50))
        assert not call("blobIsCompressed", b"plain text")
        assert not call("blobIsCompressed", b"")

    def test_deterministic_across_calls(self):
        data = b"determinism matters for engine equivalence" * 4
        assert call("blobCompress", data) == call("blobCompress", data)

    @given(st.binary(min_size=0, max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        assert call("blobDecompress", call("blobCompress", data)) == data


class TestCompressionTunnel:
    APP_PORT = 4444

    def _tunnel_net(self, with_asps: bool):
        """sender -- r1 ==slow== r2 -- receiver, ASPs on r1/r2."""
        net = Network(seed=71)
        sender = net.add_host("sender")
        r1 = net.add_router("r1")
        r2 = net.add_router("r2")
        receiver = net.add_host("receiver")
        net.link(sender, r1, bandwidth=10e6)
        slow = net.link(r1, r2, bandwidth=128_000, queue_limit=512)
        net.link(r2, receiver, bandwidth=10e6)
        net.finalize()
        if with_asps:
            deployment = Deployment()
            deployment.install(
                link_compressor_asp(app_port=self.APP_PORT), [r1],
                source_name="compressor")
            deployment.install(
                link_decompressor_asp(app_port=self.APP_PORT), [r2],
                source_name="decompressor")
        return net, sender, r1, r2, receiver, slow

    def _send_text(self, net, sender, receiver, n=30):
        got = []
        sock = net.udp(receiver).bind(self.APP_PORT)
        sock.on_datagram = lambda d, s, p: got.append(d)
        out = net.udp(sender).bind()
        payload = ("All work and no play makes Jack a dull boy. " * 20
                   ).encode("latin-1")
        for i in range(n):
            net.sim.at(i * 0.2, lambda: out.sendto(
                receiver.address, self.APP_PORT, payload))
        net.run(until=n * 0.2 + 5.0)
        return got, payload

    def test_payloads_restored_exactly(self):
        net, sender, r1, r2, receiver, slow = self._tunnel_net(True)
        got, payload = self._send_text(net, sender, receiver)
        assert len(got) == 30
        assert all(d == payload for d in got)

    def test_slow_link_carries_fewer_bytes(self):
        plain_net = self._tunnel_net(False)
        got_plain, _ = self._send_text(plain_net[0], plain_net[1],
                                       plain_net[4])
        plain_bytes = plain_net[5].tx_queue(
            plain_net[2].interfaces[1]).stats.bytes_sent

        comp_net = self._tunnel_net(True)
        got_comp, _ = self._send_text(comp_net[0], comp_net[1],
                                      comp_net[4])
        comp_bytes = comp_net[5].tx_queue(
            comp_net[2].interfaces[1]).stats.bytes_sent

        assert len(got_plain) == len(got_comp) == 30
        assert comp_bytes < plain_bytes / 5  # highly redundant text

    def test_small_payloads_skip_compression(self):
        net, sender, r1, r2, receiver, slow = self._tunnel_net(True)
        got = []
        sock = net.udp(receiver).bind(self.APP_PORT)
        sock.on_datagram = lambda d, s, p: got.append(d)
        out = net.udp(sender).bind()
        out.sendto(receiver.address, self.APP_PORT, b"tiny")
        net.run(until=2.0)
        assert got == [b"tiny"]
        assert r1.planp.protocol_state == 0  # compressor left it alone


class TestContentFilter:
    def test_matching_requests_redirected(self):
        net = Network(seed=72)
        client = net.add_host("client")
        router = net.add_router("router")
        server = net.add_host("server")
        policy = net.add_host("policy")
        net.link(client, router)
        net.link(router, server)
        net.link(router, policy)
        net.finalize()
        PlanPLayer(router).install(
            content_filter_asp("/private", str(policy.address)))
        at_server, at_policy = [], []
        server.delivery_taps.append(lambda p: at_server.append(p))
        policy.delivery_taps.append(lambda p: at_policy.append(p))

        client.ip_send(tcp_packet(client.address, server.address, 5, 80,
                                  b"GET /public HTTP/1.0\r\n\r\n"))
        client.ip_send(tcp_packet(client.address, server.address, 5, 80,
                                  b"GET /private/x HTTP/1.0\r\n\r\n"))
        net.run(until=1.0)
        assert len(at_server) == 1
        assert len(at_policy) == 1
        assert b"/private" in at_policy[0].payload

    def test_filter_passes_verification(self):
        from repro.analysis import verify_report
        from repro.lang import parse, typecheck

        report = verify_report(typecheck(parse(
            content_filter_asp("blocked", "10.0.9.9"))))
        assert report.passed


class TestFirewall:
    def test_rejected_by_delivery_analysis(self):
        from repro.analysis import verify_report
        from repro.lang import parse, typecheck

        report = verify_report(typecheck(parse(firewall_asp([23]))))
        assert not report.passed
        assert {r.name for r in report.failures} == {"delivery"}

    def test_privileged_deployment_blocks_ports(self):
        net = Network(seed=73)
        outside = net.add_host("outside")
        router = net.add_router("router")
        inside = net.add_host("inside")
        net.link(outside, router)
        net.link(router, inside)
        net.finalize()
        PlanPLayer(router).install(firewall_asp([23, 135]),
                                   verify=False)
        delivered = []
        inside.delivery_taps.append(lambda p: delivered.append(
            p.transport.dst_port))
        for port in (23, 80, 135, 443):
            outside.ip_send(tcp_packet(outside.address, inside.address,
                                       9, port, b"x"))
        net.run(until=1.0)
        assert delivered == [80, 443]
        assert router.planp.stats.packets_dropped == 2

    def test_needs_at_least_one_port(self):
        with pytest.raises(ValueError):
            firewall_asp([])
