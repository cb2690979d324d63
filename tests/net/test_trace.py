"""Packet tracer tests: the tracer writes into, and renders from, the
network's one event log."""

from collections import Counter

from repro.net import Network
from repro.net.packet import udp_packet
from repro.net.trace import PacketTracer
from repro.obs.events import MAX_EVENTS


def traced_line():
    net = Network(seed=5)
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    net.link(a, r)
    net.link(r, b)
    net.finalize()
    tracer = PacketTracer(net)
    tracer.attach_all()
    return net, a, r, b, tracer


def records(net, kind, **fields):
    return [e for e in net.obs.events.events if e.kind == kind
            if all(e.data[k] == v for k, v in fields.items())]


class TestTracing:
    def test_records_path_across_nodes(self):
        net, a, r, b, tracer = traced_line()
        packet = udp_packet(a.address, b.address, 1, 2, b"x")
        a.ip_send(packet)
        net.run()
        assert tracer.packet_path(packet.uid) == ["r", "b"]

    def test_deliver_event_recorded(self):
        net, a, r, b, tracer = traced_line()
        packet = udp_packet(a.address, b.address, 1, 2, b"x")
        a.ip_send(packet)
        net.run()
        assert [e.node for e in records(net, "up", uid=packet.uid)] \
            == ["b"]

    def test_filter_by_proto(self):
        net, a, r, b, tracer = traced_line()
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        conn = net.tcp(a)
        net.tcp(b).listen(80, lambda c: None)
        conn.connect(b.address, 80)
        net.run(until=2.0)
        assert records(net, "rx", proto="udp")
        assert records(net, "rx", proto="tcp")

    def test_render_is_readable(self):
        net, a, r, b, tracer = traced_line()
        a.ip_send(udp_packet(a.address, b.address, 7, 9, b"x"))
        net.run()
        text = tracer.render()
        assert "7->9" in text
        assert "-> " in text and "ms" in text
        assert [line.split()[2] for line in text.splitlines()] \
            == ["tx", "rx", "tx", "rx", "up"]

    def test_truncation_guard(self):
        net, a, r, b, tracer = traced_line()
        for _ in range(MAX_EVENTS):
            net.obs.events.emit("fault")
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        net.run()
        assert net.obs.events.dropped == 5  # tx rx tx rx up
        assert tracer.render() == (f"... 5 events not logged: the log "
                                   f"holds {MAX_EVENTS}")

    def test_tcp_flags_described(self):
        net, a, r, b, tracer = traced_line()
        net.tcp(b).listen(80, lambda c: None)
        net.tcp(a).connect(b.address, 80)
        net.run(until=1.0)
        assert any("[S]" in e.data["info"]
                   for e in records(net, "rx", proto="tcp"))
        assert "[S]" in tracer.render()

    def test_double_attach_is_idempotent(self):
        net, a, r, b, tracer = traced_line()
        tracer.attach(r)  # second time
        tracer.attach_media()
        packet = udp_packet(a.address, b.address, 1, 2, b"x")
        a.ip_send(packet)
        net.run()
        assert len(records(net, "rx", uid=packet.uid)) == 2  # r, b
        assert len(records(net, "tx", uid=packet.uid)) == 2  # a, r


class TestSendAndDropTracing:
    def test_send_events_recorded_along_path(self):
        net, a, r, b, tracer = traced_line()
        packet = udp_packet(a.address, b.address, 1, 2, b"x")
        a.ip_send(packet)
        net.run()
        tx_nodes = [e.node for e in records(net, "tx", uid=packet.uid)]
        assert tx_nodes == ["a", "r"]  # once per hop, stamped by sender

    def test_queue_drop_appears_in_rendered_trace(self):
        net = Network(seed=5)
        a = net.add_host("a")
        b = net.add_host("b")
        net.link(a, b, bandwidth=64_000, queue_limit=1)
        net.finalize()
        tracer = PacketTracer(net)
        tracer.attach_all()
        dropped = []
        for _ in range(6):
            packet = udp_packet(a.address, b.address, 1, 2, b"x" * 500)
            a.ip_send(packet)
            dropped.append(packet.uid)
        net.run()
        drops = [e for e in net.obs.events.events if e.kind == "drop"]
        assert drops and all(e.data["reason"] == "queue" for e in drops)
        assert {e.data["uid"] for e in drops} <= set(dropped)
        text = tracer.render()
        assert "drop" in text and "reason=queue" in text

    def test_each_drop_is_logged_once(self):
        net, a, r, b, tracer = traced_line()
        net.faults.link_down(net.media[1])  # r--b: r has no route on
        uids = []
        for _ in range(3):
            packet = udp_packet(a.address, b.address, 1, 2, b"x")
            a.ip_send(packet)
            uids.append(packet.uid)
        net.run()
        per_uid = Counter(e.data["uid"]
                          for e in net.obs.events.events if e.kind == "drop")
        assert per_uid == {uid: 1 for uid in uids}
        assert tracer.render().count("reason=no-route") == 3

    def test_downed_link_drop_traced_with_reason(self):
        net, a, r, b, tracer = traced_line()
        # Down the medium directly (the fault controller would also
        # recompute routes, turning this into a no-route node drop).
        net.media[0].up = False  # the a--r link
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        net.run()
        (drop,) = [e for e in net.obs.events.events if e.kind == "drop"]
        assert drop.node == "a"
        assert drop.data["reason"] == "down"

    def test_no_route_after_fault_recompute_traced(self):
        net, a, r, b, tracer = traced_line()
        net.faults.link_down(net.media[0])  # recomputes routes too
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        net.run()
        (drop,) = [e for e in net.obs.events.events if e.kind == "drop"]
        assert drop.node == "a"
        assert drop.data["reason"] == "no-route"

    def test_traced_packets_mirrored_into_event_log(self):
        net, a, r, b, tracer = traced_line()
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        net.run()
        kinds = {e.kind for e in net.obs.events.events}
        assert kinds == {"tx", "rx", "up"}  # no drop happened

    def test_untraced_network_logs_no_packet_records(self):
        net = Network(seed=5)
        a = net.add_host("a")
        b = net.add_host("b")
        net.link(a, b)
        net.finalize()
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        net.run()
        assert len(net.obs.events) == 0
