"""Fault injection: link/segment failures, node crashes, partitions,
scripted timelines, and routing reconvergence over the surviving graph."""

from repro.net import Network
from repro.net.packet import udp_packet
from repro.net.routing import compute_routes
from repro.runtime import PlanPLayer

FORWARD = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
           "(OnRemote(network, p); (ps + 1, ss))")


def diamond(seed=7):
    """a -- r1/r2 (parallel routers) -- b."""
    net = Network(seed=seed)
    a = net.add_host("a")
    r1 = net.add_router("r1")
    r2 = net.add_router("r2")
    b = net.add_host("b")
    links = {
        "a-r1": net.link(a, r1),
        "r1-b": net.link(r1, b),
        "a-r2": net.link(a, r2),
        "r2-b": net.link(r2, b),
    }
    net.finalize()
    return net, a, r1, r2, b, links


def send_one(net, src, dst):
    """Send one UDP packet src -> dst; return 1 if delivered."""
    got = []
    tap = got.append
    dst.delivery_taps.append(tap)
    src.ip_send(udp_packet(src.address, dst.address, 1, 7, b"x"))
    net.sim.run()
    dst.delivery_taps.remove(tap)
    return len(got)


class TestLinkFaults:
    def test_down_link_drops_traffic(self):
        net = Network(seed=1)
        a = net.add_host("a")
        b = net.add_host("b")
        link = net.link(a, b)
        net.finalize()
        assert send_one(net, a, b) == 1
        link.up = False
        a.ip_send(udp_packet(a.address, b.address, 1, 7, b"y"))
        net.sim.run()
        assert b.stats.delivered == 1  # nothing new arrived
        assert link.tx_queue(a.interfaces[0]).stats.packets_dropped >= 1
        link.up = True
        assert send_one(net, a, b) == 1

    def test_down_link_flushes_queued_packets(self):
        net = Network(seed=1)
        a = net.add_host("a")
        b = net.add_host("b")
        # Slow link so packets queue behind the serializer.
        link = net.link(a, b, bandwidth=8_000)  # 1 KB/s
        net.finalize()
        for i in range(5):
            a.ip_send(udp_packet(a.address, b.address, 1, 7, b"z" * 100))
        link.up = False
        net.sim.run()
        assert b.stats.delivered == 0

    def test_segment_down_and_up(self):
        net = Network(seed=2)
        a = net.add_host("a")
        b = net.add_host("b")
        seg = net.segment("lan")
        net.attach(a, seg)
        net.attach(b, seg)
        net.finalize()
        assert send_one(net, a, b) == 1
        seg.up = False
        assert send_one(net, a, b) == 0
        seg.up = True
        assert send_one(net, a, b) == 1

    def test_controller_reroutes_around_down_link(self):
        net, a, r1, r2, b, links = diamond()
        assert send_one(net, a, b) == 1
        first = r1 if r1.stats.forwarded else r2
        other = r2 if first is r1 else r1
        down = links["a-r1"] if first is r1 else links["a-r2"]
        net.faults.link_down(down)
        assert send_one(net, a, b) == 1
        assert other.stats.forwarded >= 1
        net.faults.link_up(down)
        assert send_one(net, a, b) == 1
        assert net.faults.reconvergences == 2
        assert [text for _, text in net.faults.log] == [
            f"link down {down.name}", f"link up {down.name}"]


class TestNodeCrash:
    def test_crash_stops_delivery_and_restart_restores(self):
        net, a, r1, r2, b, _links = diamond()
        net.faults.crash("r1")
        assert not r1.up
        assert send_one(net, a, b) == 1  # rerouted via r2
        assert r2.stats.forwarded >= 1
        net.faults.restart("r1")
        assert r1.up
        assert send_one(net, a, b) == 1

    def test_crash_loses_volatile_planp_state_keeps_manifest(self):
        net, a, r1, r2, b, _links = diamond()
        layer = PlanPLayer(r1)
        layer.install(FORWARD)
        sha = layer.current_sha
        assert sha
        r1.crash()
        assert layer.loaded is None and layer.engine is None
        # The one record of what should run here survives.
        assert layer.manifest.source_sha == sha
        r1.restart()
        assert layer.loaded is None  # nothing re-installs it by itself

    def test_uninstall_clears_the_manifest_a_crash_does_not(self):
        net, a, r1, r2, b, _links = diamond()
        layer = PlanPLayer(r1)
        layer.install(FORWARD)
        layer.uninstall()
        assert layer.manifest is None  # removed on purpose: stays gone
        loaded = layer.install(FORWARD)
        r1.crash()
        assert layer.loaded is None and layer.manifest is loaded

    def test_crash_asks_nothing_of_a_foreign_packet_layer(self):
        # Node.crash knows hooks, not layers: anything duck-typed into
        # the interception point registers its own (or none).
        net, a, r1, r2, b, _links = diamond()

        class Passthrough:
            promiscuous = False

            def match(self, packet):
                return None

        r1.planp = Passthrough()
        net.faults.crash("r1")
        net.faults.restart("r1")
        assert r1.up and send_one(net, a, r1) == 1

    def test_crash_flushes_nic_buffers_and_counts(self):
        net = Network(seed=3)
        a = net.add_host("a")
        b = net.add_host("b")
        net.link(a, b, bandwidth=8_000)
        net.finalize()
        for _ in range(5):
            a.ip_send(udp_packet(a.address, b.address, 1, 7, b"q" * 100))
        a.crash()
        net.sim.run()
        assert b.stats.delivered <= 1  # at most the frame on the wire
        assert a.stats.crashes == 1
        # Traffic at a crashed node is dropped, not processed.
        b.ip_send(udp_packet(b.address, a.address, 7, 1, b"r"))
        net.sim.run()
        assert a.stats.dropped_down >= 1
        a.restart()
        assert a.stats.restarts == 1
        assert send_one(net, b, a) == 1

    def test_crash_and_restart_hooks_run_once(self):
        net, a, r1, r2, b, _links = diamond()
        calls = []
        r1.crash_hooks.append(lambda: calls.append("crash"))
        r1.restart_hooks.append(lambda: calls.append("restart"))
        r1.crash()
        r1.crash()   # idempotent while down
        r1.restart()
        r1.restart()  # idempotent while up
        assert calls == ["crash", "restart"]


class TestPartition:
    def test_partition_cuts_cross_group_media_and_heals(self):
        net, a, r1, r2, b, _links = diamond()
        cut = net.faults.partition([a, r1, r2], [b])
        assert len(cut) == 2  # r1-b and r2-b
        assert send_one(net, a, b) == 0
        assert send_one(net, a, r1) == 1  # intra-group still works
        net.faults.heal()
        assert send_one(net, a, b) == 1

    def test_partition_accepts_node_names(self):
        net, a, r1, r2, b, _links = diamond()
        cut = net.faults.partition(["a"], ["b", "r1", "r2"])
        assert len(cut) == 2  # a-r1 and a-r2
        assert send_one(net, a, b) == 0
        net.faults.heal()
        assert send_one(net, a, b) == 1


class TestScriptedTimeline:
    def test_scripted_crash_and_restart(self):
        net, a, r1, r2, b, _links = diamond()
        net.faults.script([
            (1.0, net.faults.crash, "r1"),
            (3.0, net.faults.restart, "r1"),
        ])
        delivered = []
        b.delivery_taps.append(lambda p: delivered.append(net.now))
        net.sim.every(0.5, lambda: a.ip_send(
            udp_packet(a.address, b.address, 1, 7, b"t")), until=4.0)
        net.run(until=5.0)
        # Every tick delivers: before the crash via r1, during via r2.
        assert len(delivered) == 9
        assert r1.stats.crashes == 1 and r1.stats.restarts == 1
        assert [(t, e) for t, e in net.faults.log] == [
            (1.0, "crash r1"), (3.0, "restart r1")]


class TestRouteRecompute:
    def test_default_route_preserved_across_recompute(self):
        net = Network(seed=4)
        h = net.add_host("h")
        r = net.add_router("r")
        net.link(h, r)
        net.finalize()
        default_iface = h.interfaces[0]
        h.routes.set_default(default_iface)
        compute_routes(net.nodes)
        assert h.routes.default is default_iface

    def test_default_route_rederived_when_egress_down(self):
        net = Network(seed=4)
        h = net.add_host("h")
        r1 = net.add_router("r1")
        r2 = net.add_router("r2")
        dead = net.link(h, r1)
        net.link(h, r2)
        net.finalize()
        h.routes.set_default(h.interfaces[0])  # via the r1 link
        dead.up = False
        compute_routes(net.nodes)
        assert h.routes.default is h.interfaces[1]  # re-derived

    def test_crashed_node_excluded_from_routing(self):
        net, a, r1, r2, b, _links = diamond()
        r1.crash()
        compute_routes(net.nodes)
        out = a.routes.lookup(b.address)
        assert out is not None
        assert out.medium.name == "a--r2"
        # The crashed node's own table was left alone (it is down).
        assert r1.routes.lookup(b.address) is not None


class TestPoisonAsp:
    def test_poison_makes_every_nth_invocation_fail(self):
        import pytest
        net, a, r1, r2, b, links = diamond()
        layer = PlanPLayer(r1)
        layer.install(FORWARD)
        net.faults.poison_asp(r1, every=2)
        from repro.net.packet import tcp_packet
        for _ in range(4):
            a.ip_send(tcp_packet(a.address, b.address, 1, 80, b"x"))
        net.sim.run()
        routed_via_r1 = layer.stats.packets_processed
        assert routed_via_r1 == 4  # the seed routes a->b via r1
        assert layer.stats.runtime_errors == routed_via_r1 // 2
        assert r1.up  # contained, never crashed
        net.faults.unpoison_asp(r1)
        before = layer.stats.runtime_errors
        for _ in range(4):
            a.ip_send(tcp_packet(a.address, b.address, 1, 80, b"x"))
        net.sim.run()
        assert layer.stats.runtime_errors == before
        with pytest.raises(ValueError):
            net.faults.poison_asp(r2, 1)  # nothing installed there

    def test_poison_is_logged_as_fault(self):
        net, a, r1, r2, b, links = diamond()
        layer = PlanPLayer(r1)
        layer.install(FORWARD)
        net.faults.poison_asp(r1, 1)
        assert any("poison asp r1" in text for _, text in net.faults.log)
