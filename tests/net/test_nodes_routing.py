"""Node behaviour, routing and multicast tests."""

from dataclasses import replace

import pytest

from repro.net import Network
from repro.net.packet import udp_packet
from repro.net.routing import compute_routes


def line_topology():
    """a -- r1 -- r2 -- b"""
    net = Network(seed=2)
    a = net.add_host("a")
    r1 = net.add_router("r1")
    r2 = net.add_router("r2")
    b = net.add_host("b")
    net.link(a, r1)
    net.link(r1, r2)
    net.link(r2, b)
    net.finalize()
    return net, a, r1, r2, b


class TestForwarding:
    def test_multi_hop_delivery(self):
        net, a, r1, r2, b = line_topology()
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"hi"))
        net.run()
        assert len(got) == 1
        assert r1.stats.forwarded == 1
        assert r2.stats.forwarded == 1

    def test_ttl_decremented_per_hop(self):
        net, a, _r1, _r2, b = line_topology()
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"hi"))
        net.run()
        assert got[0].ip.ttl == 62  # two router hops

    def test_ttl_expiry_drops(self):
        net, a, r1, _r2, b = line_topology()
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        packet = udp_packet(a.address, b.address, 1, 2, b"hi")
        packet.ip = replace(packet.ip, ttl=1)
        a.ip_send(packet)
        net.run()
        assert got == []
        assert r1.stats.dropped_ttl == 1

    def test_no_route_drop(self):
        net = Network(seed=0)
        a = net.add_host("a")
        b = net.add_host("b")
        net.link(a, b)
        net.finalize()
        from repro.net.addresses import HostAddr

        a.ip_send(udp_packet(a.address, HostAddr.parse("99.9.9.9"),
                             1, 2, b""))
        net.run()
        assert a.stats.dropped_no_route == 1

    def test_self_addressed_delivers_locally(self):
        net, a, *_rest = line_topology()
        got = []
        a.delivery_taps.append(lambda p: got.append(p))
        a.ip_send(udp_packet(a.address, a.address, 1, 2, b"loop"))
        assert len(got) == 1

    def test_host_does_not_forward(self):
        net = Network(seed=0)
        a, b, c = net.add_host("a"), net.add_host("b"), net.add_host("c")
        seg = net.segment("lan")
        for h in (a, b, c):
            net.attach(h, seg)
        net.finalize()
        # a sends to an off-segment address; b and c must not forward.
        from repro.net.addresses import HostAddr

        a.ip_send(udp_packet(a.address, HostAddr.parse("88.8.8.8"),
                             1, 2, b""))
        net.run()
        assert b.stats.forwarded == 0
        assert c.stats.forwarded == 0


class TestNodeAddresses:
    def test_address_set_tracks_add_interface(self):
        # "Is this packet for me" is answered from a set kept by
        # add_interface: an interface added to a live node must start
        # accepting at once, on the receive path and on the send path.
        net, a, r1, _r2, b = line_topology()
        spare = net.add_host("spare")
        net.link(r1, spare)
        new_addr = r1.interfaces[-1].address
        assert len(r1.interfaces) == 3
        assert r1.addresses == [i.address for i in r1.interfaces]
        assert r1.addresses is not r1.addresses  # a fresh list each time
        compute_routes(net.nodes)
        got = []
        r1.delivery_taps.append(got.append)
        a.ip_send(udp_packet(a.address, new_addr, 1, 2, b"in"))
        r1.ip_send(udp_packet(r1.address, new_addr, 1, 2, b"self"))
        net.run()
        assert sorted(p.payload for p in got) == [b"in", b"self"]
        assert r1.stats.forwarded == 0

    def test_traffic_for_a_neighbour_is_not_mine(self):
        net, a, r1, _r2, b = line_topology()
        got = []
        r1.delivery_taps.append(got.append)
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"through"))
        net.run()
        assert got == [] and r1.stats.forwarded == 1


class TestRoutingTable:
    def test_routes_are_symmetric(self):
        net, a, r1, r2, b = line_topology()
        assert a.routes.lookup(b.address) is not None
        assert b.routes.lookup(a.address) is not None

    def test_next_hop_interface_is_correct(self):
        net, a, r1, r2, b = line_topology()
        out = r1.routes.lookup(b.address)
        assert out in r1.interfaces
        # r1's route to b heads toward r2, i.e. shares a medium with r2.
        r2_media = {id(i.medium) for i in r2.interfaces}
        assert id(out.medium) in r2_media

    @pytest.mark.parametrize("wiring, leaves_on", [
        (("ac", "ab", "cd", "bd"), "a--c"),
        (("ab", "ac", "bd", "cd"), "a--b"),
        (("cd", "bd", "ab", "ac"), "a--b"),
    ])
    def test_equal_cost_tie_breaks_on_attachment_order(self, wiring,
                                                       leaves_on):
        """A diamond a–{b,c}–d: both paths cost two hops, and the one
        whose link ``a`` attached first wins — not the lower name."""
        net = Network(seed=0)
        routers = {name: net.add_router(name) for name in "abcd"}
        for x, y in wiring:
            net.link(routers[x], routers[y])
        net.finalize()
        a, d = routers["a"], routers["d"]
        assert a.routes.lookup(d.address).medium.name == leaves_on
        assert a.routes.lookup(d.address) is a.interfaces[0]

    def test_parallel_links_route_over_the_earlier_interface(self):
        net = Network(seed=0)
        a, r1, r2 = net.add_host("a"), net.add_router("r1"), \
            net.add_router("r2")
        net.link(a, r1)
        first, second = net.link(r1, r2), net.link(r2, r1)
        net.finalize()
        for addr in r2.addresses:
            assert r1.routes.lookup(addr).medium is first
            assert a.routes.lookup(addr) is a.interfaces[0]
        for addr in r1.addresses:
            assert r2.routes.lookup(addr).medium is first
        first.up = False
        compute_routes(net.nodes)
        assert all(r1.routes.lookup(addr).medium is second
                   for addr in r2.addresses)

    def test_recompute_after_node_removal(self):
        """Fault injection: recompute routes around a dead router."""
        net = Network(seed=0)
        a = net.add_host("a")
        r1 = net.add_router("r1")
        r2 = net.add_router("r2")
        b = net.add_host("b")
        net.link(a, r1)
        net.link(a, r2)
        net.link(r1, b)
        net.link(r2, b)
        net.finalize()
        # Kill whichever router a currently routes through.
        dead = r1 if a.routes.lookup(b.address) in [
            i for i in a.interfaces
            if id(i.medium) in {id(j.medium) for j in r1.interfaces}] \
            else r2
        alive = [n for n in net.nodes if n is not dead]
        compute_routes(alive)
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        net.run()
        assert len(got) == 1


class TestMulticast:
    def multicast_net(self):
        net = Network(seed=0)
        src = net.add_host("src")
        r = net.add_router("r")
        c1 = net.add_host("c1")
        c2 = net.add_host("c2")
        other = net.add_host("other")
        net.link(src, r)
        seg = net.segment("lan")
        for h in (r, c1, c2, other):
            net.attach(h, seg)
        net.finalize()
        group = net.multicast_group("224.5.5.5", src, [c1, c2])
        return net, src, r, c1, c2, other, group

    def test_joined_hosts_receive(self):
        net, src, r, c1, c2, other, group = self.multicast_net()
        got = {"c1": 0, "c2": 0, "other": 0}

        def tap(name):
            return lambda p: got.__setitem__(name, got[name] + 1)

        c1.delivery_taps.append(tap("c1"))
        c2.delivery_taps.append(tap("c2"))
        other.delivery_taps.append(tap("other"))
        src.ip_send(udp_packet(src.address, group, 1, 2, b"m"))
        net.run()
        assert got == {"c1": 1, "c2": 1, "other": 0}

    def test_one_transmission_on_shared_segment(self):
        net, src, r, c1, c2, other, group = self.multicast_net()
        src.ip_send(udp_packet(src.address, group, 1, 2, b"m"))
        net.run()
        # The router forwards once onto the segment (not per receiver).
        assert r.stats.forwarded == 1

    def test_leave_group(self):
        """A host out of the group's member set receives nothing."""
        net, src, r, c1, c2, other, group = self.multicast_net()
        c2.multicast_groups.discard(group)
        got = []
        c2.delivery_taps.append(lambda p: got.append(p))
        src.ip_send(udp_packet(src.address, group, 1, 2, b"m"))
        net.run()
        assert got == []

    def test_join_validation(self):
        net, src, *_ = self.multicast_net()
        from repro.net.addresses import HostAddr

        with pytest.raises(ValueError):
            src.join_group(HostAddr.parse("10.0.0.1"))
