"""Link, segment and monitor tests."""

import pytest

from repro.net import Link, Network, Segment
from repro.net.link import Medium
from repro.net.monitor import LoadMonitor
from repro.net.packet import udp_packet
from repro.net.routing import adjacency


def two_hosts(bandwidth=8_000_000, latency=0.001, queue_limit=4,
              loss_rate=0.0):
    net = Network(seed=3)
    a = net.add_host("a")
    b = net.add_host("b")
    link = net.link(a, b, bandwidth=bandwidth, latency=latency,
                    queue_limit=queue_limit)
    link.loss_rate = loss_rate
    net.finalize()
    return net, a, b, link


class TestLinkTiming:
    def test_serialization_plus_latency(self):
        net, a, b, _link = two_hosts(bandwidth=8_000_000, latency=0.001)
        arrivals = []
        b.delivery_taps.append(lambda p: arrivals.append(net.sim.now))
        # 972-byte payload + 28 header = 1000 B = 8000 bits -> 1 ms tx.
        p = udp_packet(a.address, b.address, 1, 2, b"x" * 972)
        a.ip_send(p)
        net.run()
        assert arrivals == [pytest.approx(0.002)]

    def test_back_to_back_serialize(self):
        net, a, b, _link = two_hosts(bandwidth=8_000_000, latency=0.0)
        arrivals = []
        b.delivery_taps.append(lambda p: arrivals.append(net.sim.now))
        for _ in range(3):
            a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x" * 972))
        net.run()
        assert arrivals == [pytest.approx(0.001 * (i + 1))
                            for i in range(3)]

    def test_duplex_directions_independent(self):
        net, a, b, link = two_hosts(bandwidth=8_000_000, latency=0.0)
        arrivals = []
        a.delivery_taps.append(lambda p: arrivals.append(("a", net.sim.now)))
        b.delivery_taps.append(lambda p: arrivals.append(("b", net.sim.now)))
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x" * 972))
        b.ip_send(udp_packet(b.address, a.address, 1, 2, b"x" * 972))
        net.run()
        # Both arrive at 1 ms: no shared queue between directions.
        assert sorted(arrivals) == [("a", pytest.approx(0.001)),
                                    ("b", pytest.approx(0.001))]


class TestQueueing:
    def test_drop_tail_when_queue_full(self):
        net, a, b, link = two_hosts(queue_limit=2)
        received = []
        b.delivery_taps.append(lambda p: received.append(p.uid))
        for _ in range(10):
            a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x" * 972))
        net.run()
        stats = link.tx_queue(a.interfaces[0]).stats
        assert stats.packets_dropped == 7  # 1 in flight + 2 queued kept
        assert len(received) == 3
        offered = stats.packets_sent + stats.packets_dropped
        assert stats.packets_dropped / offered == pytest.approx(0.7)

    def test_a_zero_limit_still_carries_one_packet_at_a_time(self):
        """``queue_limit`` bounds the waiting room, not the serializer:
        with no room to wait, a packet that finds the link idle goes
        out, and one that finds it busy is dropped."""
        net, a, b, link = two_hosts(queue_limit=0)
        received = []
        b.delivery_taps.append(lambda p: received.append(p.uid))
        sent = [udp_packet(a.address, b.address, 1, 2, b"x" * 972)
                for _ in range(3)]
        a.ip_send(sent[0])
        a.ip_send(sent[1])               # the serializer is busy
        net.sim.at(0.5, lambda: a.ip_send(sent[2]))   # idle again
        net.run()
        assert received == [sent[0].uid, sent[2].uid]
        stats = link.tx_queue(a.interfaces[0]).stats
        assert (stats.packets_sent, stats.packets_dropped) == (2, 1)

    def test_random_loss(self):
        net, a, b, link = two_hosts(loss_rate=0.5)
        received = []
        b.delivery_taps.append(lambda p: received.append(p.uid))
        for i in range(200):
            net.sim.at(i * 0.01, lambda: a.ip_send(
                udp_packet(a.address, b.address, 1, 2, b"y" * 100)))
        net.run()
        assert 60 < len(received) < 140  # ~100 expected


class TestInFlight:
    """Frames past the serializer wait in their transmit queue's
    in-flight list until their arrival event, which takes the list's
    head: with one latency per medium they fall due in transmission
    order.  Many frames propagate at once here (50 ms of latency
    against 128 us of serialization), so delivering from the wrong end
    reorders every case.  Expected deliveries come from the timing
    model — each transmission ends one serialization delay after the
    previous one, summed exactly as the simulator sums it, and arrives
    one latency later — and the lost frames are pinned."""

    N = 24
    SER = 128 * 8 / 8_000_000      # a 100-byte UDP payload at 8 Mbit/s

    def run(self, *, latency, loss_rate=0.0, down_at=None, up_at=None,
            late=0):
        net, a, b, link = two_hosts(bandwidth=8_000_000, latency=latency,
                                    queue_limit=64, loss_rate=loss_rate)
        index, seen, dropped = {}, [], []
        b.receive_taps.append(
            lambda p, _iface: seen.append((index[p.uid], net.sim.now)))
        link.add_drop_tap(
            lambda p, _sender, why: dropped.append((index[p.uid], why)))

        def send(k):
            packet = udp_packet(a.address, b.address, 1, 2, b"x" * 100)
            index[packet.uid] = k
            a.ip_send(packet)

        for k in range(self.N):
            send(k)
        if down_at is not None:
            net.sim.at(down_at, lambda: setattr(link, "up", False))
        if up_at is not None:
            def restore():
                link.up = True
                for k in range(self.N, self.N + late):
                    send(k)
            net.sim.at(up_at, restore)
        net.run()
        return seen, dropped

    def model(self, start, frames, latency):
        """``(index, arrival)`` for ``frames`` sent back to back from
        ``start``."""
        out, done = [], start
        for k in frames:
            done = done + self.SER
            out.append((k, done + latency))
        return out

    def test_all_frames_in_flight_arrive_in_order(self):
        seen, dropped = self.run(latency=0.05)
        assert seen == self.model(0.0, range(self.N), 0.05)
        assert dropped == []

    def test_lossy_medium_keeps_the_survivors_in_order(self):
        seen, dropped = self.run(latency=0.05, loss_rate=0.4)
        lost = [k for k, why in dropped if why == "loss"]
        assert len(dropped) == len(lost)
        # the frames two_hosts' seed loses, as the per-frame closure lost
        # them: a lost frame never enters the in-flight list
        assert lost == [0, 2, 4, 6, 7, 10, 14, 17, 20]
        expected = self.model(0.0, range(self.N), 0.05)
        assert seen == [(k, t) for k, t in expected if k not in lost]

    def test_zero_latency_arrives_at_tx_done(self):
        seen, dropped = self.run(latency=0.0)
        assert seen == self.model(0.0, range(self.N), 0.0)
        assert dropped == []

    def test_medium_down_mid_propagation(self):
        """Down at 10.5 serializations: frames 11-23 are flushed at
        once, frame 10 is lost at its tx-done, and frames 0-9, already
        on the wire, still arrive.  Back up before any arrival, four
        more frames queue behind the survivors in the in-flight list."""
        up_at = 20 * self.SER
        seen, dropped = self.run(latency=0.05, down_at=10.5 * self.SER,
                                 up_at=up_at, late=4)
        assert dropped == [(k, "flush") for k in range(11, self.N)] + [
            (10, "loss")]
        expected = self.model(0.0, range(self.N), 0.05)[:10]
        expected += self.model(up_at, range(self.N, self.N + 4), 0.05)
        assert seen == expected


class TestSegment:
    def test_broadcast_to_all_but_sender(self):
        net = Network(seed=1)
        hosts = [net.add_host(f"h{i}") for i in range(4)]
        seg = net.segment("lan")
        for h in hosts:
            net.attach(h, seg)
        net.finalize()
        seen = {h.name: [] for h in hosts}
        for h in hosts:
            h.receive_taps.append(
                lambda p, i, name=h.name: seen[name].append(p.uid))
        hosts[0].ip_send(udp_packet(hosts[0].address, hosts[1].address,
                                    1, 2, b"z"))
        net.run()
        assert seen["h0"] == []
        assert len(seen["h1"]) == 1
        assert len(seen["h2"]) == 1  # broadcast medium: h2 sees it too
        # ...but only h1 delivers it up the stack.
        assert hosts[1].stats.delivered == 1
        assert hosts[2].stats.dropped_not_local == 1

    def test_shared_queue_couples_stations(self):
        net = Network(seed=1)
        a, b, c = (net.add_host(n) for n in "abc")
        seg = net.segment("lan", bandwidth=8_000_000, latency=0.0)
        for h in (a, b, c):
            net.attach(h, seg)
        net.finalize()
        arrivals = []
        c.delivery_taps.append(lambda p: arrivals.append(net.sim.now))
        # a and b each transmit one 1000-B packet to c at t=0: the
        # second serializes after the first (half duplex).
        a.ip_send(udp_packet(a.address, c.address, 1, 2, b"x" * 972))
        b.ip_send(udp_packet(b.address, c.address, 1, 2, b"x" * 972))
        net.run()
        assert arrivals == [pytest.approx(0.001), pytest.approx(0.002)]

    def test_segment_load_visible(self):
        net = Network(seed=1)
        a, b = net.add_host("a"), net.add_host("b")
        seg = net.segment("lan", bandwidth=1_000_000)
        net.attach(a, seg)
        net.attach(b, seg)
        net.finalize()
        for i in range(120):
            net.sim.at(i * 0.01, lambda: a.ip_send(
                udp_packet(a.address, b.address, 1, 2, b"x" * 972)))
        net.run(until=1.2)
        # 100 kB/s ~ 800 kbit/s over the 1-second window
        assert 600 < seg.load_kbps() <= 1000


class TestMedium:
    def wired(self):
        """r0 =link= r1 =lan= r2, and r0 on the lan too."""
        net = Network(seed=1)
        r0, r1, r2 = (net.add_router(f"r{i}") for i in range(3))
        link = net.link(r0, r1)
        lan = net.segment("lan")
        for r in (r1, r2, r0):
            net.attach(r, lan)
        net.finalize()
        return net, (r0, r1, r2), link, lan

    def test_link_and_segment_are_media(self):
        _net, _routers, link, lan = self.wired()
        assert type(link) is Link and type(lan) is Segment
        assert isinstance(link, Medium) and isinstance(lan, Medium)
        assert link.latency == 0.0005 and lan.latency == 0.0002

    def test_stats_dict_keys_and_order(self):
        net, (r0, r1, _r2), link, lan = self.wired()
        r0.ip_send(udp_packet(r0.address, r1.address, 1, 2, b"x" * 72))
        r1.ip_send(udp_packet(r1.address, r0.address, 1, 2, b"x" * 72))
        net.run()
        keys = ["packets_sent", "bytes_sent", "packets_dropped",
                "bytes_dropped", "packets_lost", "bytes_lost", "queued",
                "up"]
        assert list(link.stats_dict()) == list(lan.stats_dict()) == keys
        # Both directions of the link, summed.
        assert link.stats_dict() == dict(
            zip(keys, [2, 200, 0, 0, 0, 0, 0, True]))
        assert lan.stats_dict() == dict(
            zip(keys, [0, 0, 0, 0, 0, 0, 0, True]))

    def test_downed_medium_of_either_kind_leaves_the_live_adjacency(self):
        net, (r0, r1, r2), link, lan = self.wired()
        def via(adj):
            return {a.name: {b.name: iface.medium for b, iface in row.items()}
                    for a, row in adj.items()}

        both = {"r0": {"r1": link, "r2": lan}, "r1": {"r0": link, "r2": lan},
                "r2": {"r0": lan, "r1": lan}}
        assert via(adjacency(net.nodes, live=True)) == both
        link.up = False
        assert via(adjacency(net.nodes, live=True)) == {
            "r0": {"r1": lan, "r2": lan}, "r1": {"r0": lan, "r2": lan},
            "r2": {"r0": lan, "r1": lan}}
        link.up, lan.up = True, False
        assert via(adjacency(net.nodes, live=True)) == {
            "r0": {"r1": link}, "r1": {"r0": link}, "r2": {}}
        # The topology as wired does not look at ``up``.
        assert via(adjacency(net.nodes, live=False)) == both


class TestMediumValidation:
    """A bad parameter fails at the call that passed it, naming the
    medium, with nothing attached — not as a ZeroDivisionError on the
    first packet (``bandwidth=0``), a ``negative delay`` mid-run
    (``latency=-1``) or a silent black hole (``loss_rate=2``,
    ``queue_limit=-1``)."""

    CASES = [("bandwidth", 0, "bandwidth_bps"),
             ("latency", -1.0, "latency"),
             ("loss_rate", 2.0, "loss_rate"),
             ("queue_limit", -1, "queue_limit")]

    @staticmethod
    def link_after(bad_kw=None, match=None):
        net = Network(seed=0)
        a, b = net.add_host("a"), net.add_host("b")
        if bad_kw:
            with pytest.raises(ValueError, match=match):
                net.link(a, b, **bad_kw)
            assert net.media == []
            assert not a.interfaces and not b.interfaces
        link = net.link(a, b)
        return str(a.address), link.tx_queue(a.interfaces[0]).ctx.name

    @staticmethod
    def segment_after(bad_kw=None, match=None):
        net = Network(seed=0)
        if bad_kw:
            with pytest.raises(ValueError, match=match):
                net.segment("lan", **bad_kw)
            assert net.media == []
        lan = net.segment("lan")
        return lan.subnet, lan.tx_queue(None).ctx.name

    @pytest.mark.parametrize("param,value,named", CASES)
    def test_rejected_at_the_call(self, param, value, named):
        if param == "loss_rate":  # set on a built medium, not built in
            net = Network(seed=0)
            a, b = net.add_host("a"), net.add_host("b")
            for medium in (net.link(a, b), net.segment("lan")):
                with pytest.raises(ValueError,
                                   match=f"'{medium.name}'.*{named}"):
                    medium.loss_rate = value
                assert medium.loss_rate == 0.0
            return
        # ... and consumed nothing: the next medium gets the subnet and
        # the transmit-queue context it would have got anyway
        bad_kw = {param: value}
        assert self.link_after(bad_kw, f"'a--b'.*{named}") \
            == self.link_after()
        assert self.segment_after(bad_kw, f"'lan'.*{named}") \
            == self.segment_after()

    def test_the_edges_of_each_range_are_accepted(self):
        net = Network(seed=0)
        a, b = net.add_host("a"), net.add_host("b")
        net.link(a, b, latency=0.0, queue_limit=0).loss_rate = 1.0
        net.segment("lan").loss_rate = 0.0


class TestLoadMonitor:
    def test_rate_over_window(self):
        monitor = LoadMonitor()
        for i in range(10):
            monitor.record(i * 0.1, 1250)  # 12.5 kB over 1 s = 100 kbit/s
        assert monitor.rate_kbps(1.0) == pytest.approx(100, abs=15)

    def test_old_traffic_expires(self):
        monitor = LoadMonitor()
        monitor.record(0.0, 100_000)
        assert monitor.bytes_in_window(0.5) == 100_000
        assert monitor.bytes_in_window(5.0) == 0

    def test_totals_accumulate(self):
        monitor = LoadMonitor()
        monitor.record(0.0, 10)
        monitor.record(9.0, 20)
        assert monitor.total_bytes == 30
        assert monitor.total_packets == 2

    # -- warm-up regression -------------------------------------------------
    #
    # Before the window has filled, the rate must divide by the elapsed
    # time, not the full window: the old behaviour underreported early
    # rates (1000 B at t=0.05 read as 16 kbit/s instead of 160), which
    # biased the audio ASP's first adaptation decisions toward "plenty
    # of headroom".

    def test_warmup_divides_by_elapsed_not_window(self):
        monitor = LoadMonitor()
        monitor.record(0.05, 1000)
        # 8000 bits over 0.5 s elapsed = 16 kbit/s (not 8 over 1.0 s).
        assert monitor.rate_bps(0.5) == pytest.approx(16_000)
        assert monitor.rate_kbps(0.5) == 16

    def test_warmup_floored_at_one_bucket(self):
        monitor = LoadMonitor()
        monitor.record(0.01, 1000)
        # A lone packet at t≈0 must not extrapolate to an absurd rate:
        # the denominator bottoms out at the bucket width.
        assert monitor.rate_bps(0.02) == pytest.approx(8000 / 0.1)

    def test_full_window_uses_window_denominator(self):
        monitor = LoadMonitor()
        monitor.record(1.95, 1000)
        # Past warm-up the denominator is the window even though the
        # bytes arrived in its last bucket.
        assert monitor.rate_bps(2.0) == pytest.approx(8000)

    def test_warmup_rate_is_continuous_at_window_edge(self):
        monitor = LoadMonitor()
        monitor.record(0.5, 5000)
        just_before = monitor.rate_bps(0.999)
        at_edge = monitor.rate_bps(1.0)
        assert just_before == pytest.approx(at_edge, rel=0.01)
