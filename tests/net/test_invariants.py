"""Simulator-wide conservation and invariant property tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Network
from repro.net.packet import udp_packet


def line_net(n_routers, seed):
    net = Network(seed=seed)
    a = net.add_host("a")
    previous = a
    routers = []
    for i in range(n_routers):
        router = net.add_router(f"r{i}")
        net.link(previous, router)
        previous = router
        routers.append(router)
    b = net.add_host("b")
    net.link(previous, b)
    net.finalize()
    return net, a, routers, b


class TestConservation:
    @given(st.integers(0, 3), st.integers(1, 40), st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_udp_datagrams_conserved_on_lossless_path(self, n_routers,
                                                      n_packets, seed):
        """On a lossless line, every datagram sent is delivered exactly
        once and forwarded exactly once per router."""
        net, a, routers, b = line_net(n_routers, seed)
        delivered = []
        b.delivery_taps.append(lambda p: delivered.append(p.uid))
        for i in range(n_packets):
            net.sim.at(i * 0.001, lambda: a.ip_send(
                udp_packet(a.address, b.address, 1, 2, b"x" * 50)))
        net.run()
        assert len(delivered) == n_packets
        assert len(set(delivered)) == n_packets  # no duplicates
        for router in routers:
            assert router.stats.forwarded == n_packets

    @given(st.integers(1, 30), st.integers(0, 99))
    @settings(max_examples=20, deadline=None)
    def test_loss_accounting_balances(self, n_packets, seed):
        """sent == delivered + dropped, with loss injected."""
        net = Network(seed=seed)
        a = net.add_host("a")
        b = net.add_host("b")
        link = net.link(a, b, queue_limit=4)
        link.loss_rate = 0.3
        net.finalize()
        delivered = []
        b.delivery_taps.append(lambda p: delivered.append(p.uid))
        for i in range(n_packets):
            net.sim.at(i * 0.01, lambda: a.ip_send(
                udp_packet(a.address, b.address, 1, 2, b"y" * 100)))
        net.run()
        stats = link.tx_queue(a.interfaces[0]).stats
        # offered = transmitted + queue-dropped; arrived = sent - lost
        assert stats.packets_sent + stats.packets_dropped == n_packets
        assert len(delivered) == stats.packets_sent - stats.packets_lost

    def test_ttl_bounds_any_forwarding(self):
        """No packet can be forwarded more than its initial TTL times,
        even on a deliberately mis-routed topology (a 3-router ring; a
        2-node ping-pong is already prevented by the arrival-interface
        rule)."""
        net = Network(seed=3)
        r1 = net.add_router("r1")
        r2 = net.add_router("r2")
        r3 = net.add_router("r3")
        l12 = net.link(r1, r2)
        l23 = net.link(r2, r3)
        l31 = net.link(r3, r1)
        net.finalize()
        # Route a ghost address clockwise around the ring, forever.
        from repro.net.addresses import HostAddr

        def iface_on(node, link):
            return next(i for i in node.interfaces if i.medium is link)

        ghost = HostAddr.parse("99.99.99.99")
        r1.routes.add_route(ghost, iface_on(r1, l12))
        r2.routes.add_route(ghost, iface_on(r2, l23))
        r3.routes.add_route(ghost, iface_on(r3, l31))
        packet = udp_packet(r1.address, ghost, 1, 2, b"loop")
        r1.ip_send(packet)
        net.sim.run(max_events=100_000)
        hops = (r1.stats.forwarded + r2.stats.forwarded
                + r3.stats.forwarded)
        assert hops > 10  # it really did loop...
        assert hops <= packet.ip.ttl  # ...but the TTL bounded it
        drops = (r1.stats.dropped_ttl + r2.stats.dropped_ttl
                 + r3.stats.dropped_ttl)
        assert drops == 1


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        def run(seed):
            from repro.apps.audio import run_audio_experiment

            result = run_audio_experiment(duration=8.0, seed=seed,
                                          constant_load_bps=1_600_000)
            fig = result.figures
            return (fig["frames_received"], fig["silent_periods"],
                    [(s.time, s.kbps, s.quality)
                     for s in fig["bandwidth_series"]])

        assert run(5) == run(5)

    def test_different_seeds_differ_under_loss(self):
        net1, a1, _r, b1 = line_net(0, 1)
        # rebuild with loss and different seeds
        def delivered_count(seed):
            net = Network(seed=seed)
            a = net.add_host("a")
            b = net.add_host("b")
            net.link(a, b).loss_rate = 0.5
            net.finalize()
            got = []
            b.delivery_taps.append(lambda p: got.append(p))
            for i in range(40):
                net.sim.at(i * 0.01, lambda: a.ip_send(
                    udp_packet(a.address, b.address, 1, 2, b"z")))
            net.run()
            return len(got)

        counts = {delivered_count(s) for s in range(6)}
        assert len(counts) > 1
