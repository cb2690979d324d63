"""Unit tests for the sharded core (DESIGN §13): partition
validation, the boundary-message protocol, the per-segment metric
namespace, and the window counters."""

import functools
import itertools

import pytest

from repro.experiments.result import deterministic_metrics
from repro.net.shard import ShardError, build_plan
from repro.net.topology import Network
from repro.obs import Observability

SPORT = 7000


def linked_pair(*, segments=1, latency=0.002, **kwargs):
    net = Network(seed=3, name="pair", shard_segments=segments,
                  **kwargs)
    a, b = net.add_host("a"), net.add_host("b")
    net.link(a, b, latency=latency)
    return net, a, b


class TestPlanValidation:
    def test_default_partition_is_contiguous(self):
        net, a, b = linked_pair()
        net.finalize()
        plan = build_plan(net, 2)
        assert plan.assignment == {"a": 0, "b": 1}
        assert plan.cross_links == ["a--b"]
        assert plan.lookahead == 0.002

    def test_cut_segment_medium_rejected(self):
        net = Network(seed=3, name="segcut", shard_segments=2)
        a, b = net.add_host("a"), net.add_host("b")
        seg = net.segment("lan")
        net.attach(a, seg)
        net.attach(b, seg)
        with pytest.raises(ShardError, match="[Ss]egment"):
            net.finalize()

    def test_zero_latency_cut_rejected(self):
        net, a, b = linked_pair(segments=2, latency=0.0)
        with pytest.raises(ShardError, match="latency"):
            net.finalize()

    def test_lookahead_is_min_cut_latency(self):
        net = Network(seed=3, name="tri")
        hosts = [net.add_host(f"h{i}") for i in range(4)]
        net.link(hosts[0], hosts[1], latency=0.05)   # internal to 0
        net.link(hosts[1], hosts[2], latency=0.030)  # cut
        net.link(hosts[2], hosts[3], latency=0.007)  # internal to 1
        net.finalize()
        plan = build_plan(net, 2)
        assert plan.assignment == {"h0": 0, "h1": 0, "h2": 1, "h3": 1}
        assert plan.lookahead == 0.030
        assert plan.cross_links == ["h1--h2"]

    def test_cannot_shard_finer_than_nodes(self):
        net, a, b = linked_pair(segments=1)
        net.finalize()
        with pytest.raises(ShardError):
            build_plan(net, 3)


class TestBoundaryProtocol:
    def test_boundary_counters_track_crossings(self):
        net, a, b = linked_pair(segments=2)
        net.finalize()
        sock = net.udp(b).bind(SPORT)
        net.udp(a).bind(SPORT).sendto(b.address, SPORT, b"x")
        net.run(until=0.1)
        runner = net._shard
        assert sock.received and sock.received[0][0] == b"x"
        assert runner.boundary_out[0] == 1
        assert runner.boundary_in[1] == 1
        assert runner.windows >= 1

    def test_horizon_stalls_counted_for_idle_segment(self):
        net, a, b = linked_pair(segments=2)
        net.finalize()
        # activity only in segment 0: segment 1 turns over empty
        # windows and the stall counter says so
        for k in range(3):
            a.sim.schedule(0.01 * (k + 1), lambda: None, context=a.ctx)
        net.run(until=0.1)
        runner = net._shard
        assert runner.windows >= 1
        assert runner.horizon_stalls[1] >= 1
        assert runner.boundary_out == [0, 0]


    def test_parallel_cut_links_match_serial(self):
        # two links between the same pair share the name "a--b"; a
        # boundary message carries the link and sending interface
        # themselves, so both may be cut
        def run(segments):
            net, a, b = linked_pair(segments=segments)
            second = net.link(a, b, latency=0.003)
            net.finalize()
            for near, far in ((a, b), (b, a)):
                near.routes.add_route(far.interfaces[1].address,
                                      near.interfaces[1])
            deliveries = []
            socks = {}
            for host in (a, b):
                socks[host] = net.udp(host).bind(SPORT)

                def on_datagram(payload, src, src_port, *, host=host):
                    deliveries.append((host.sim.current_event_key,
                                       host.name, payload))

                socks[host].on_datagram = on_datagram
            # two rounds, both directions, over both links
            for k, near, far, via in itertools.product(
                    (1, 2), (a, b), (a, b), (0, 1)):
                if near is not far:
                    near.sim.at(
                        0.01 * k,
                        functools.partial(
                            socks[near].sendto,
                            far.interfaces[via].address, SPORT,
                            f"{near.name}{via}:{k}".encode()),
                        context=near.ctx)
            net.run(until=0.1)
            assert second.stats_dict()["packets_sent"] == 4
            return sorted(deliveries), deterministic_metrics(
                net.metrics_snapshot(include_global=False))

        serial = run(1)
        assert len(serial[0]) == 8
        assert run(2) == serial


class TestSegmentMetricNamespace:
    def test_per_segment_scopes_carry_network_name(self):
        obs = Observability()
        net1 = Network(seed=1, name="alpha", shard_segments=2, obs=obs)
        a, b = net1.add_host("a"), net1.add_host("b")
        net1.link(a, b, latency=0.001)
        net1.finalize()
        net2 = Network(seed=1, name="beta", shard_segments=2, obs=obs)
        c, d = net2.add_host("c"), net2.add_host("d")
        net2.link(c, d, latency=0.001)
        net2.finalize()
        keys = set(net1.metrics_snapshot(include_global=False))
        # regression: per-segment sims must not collide with the
        # sim2/sim3 numbering of additional networks — each segment
        # scope is namespaced <sim-name>.<net-name>.<segment>
        for want in ("sim.alpha.0.events_processed",
                     "sim.alpha.1.events_processed",
                     "sim2.beta.0.events_processed",
                     "sim2.beta.1.events_processed",
                     "sim.now", "sim2.now"):
            assert want in keys, want

    def test_segment_scopes_are_filtered_from_records(self):
        net, a, b = linked_pair(segments=2)
        net.finalize()
        net.udp(b).bind(SPORT)
        net.udp(a).bind(SPORT).sendto(b.address, SPORT, b"x")
        net.run(until=0.1)
        snap = net.metrics_snapshot(include_global=False)
        assert any(k.startswith("sim.pair.") for k in snap)
        record = deterministic_metrics(snap)
        assert not any(k.startswith("sim.pair.") for k in record)
        assert "sim.events_processed" in record
