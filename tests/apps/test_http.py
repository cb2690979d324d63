"""HTTP application tests: trace, server, client, gateway baseline."""

import pytest

from repro.apps.http import (BuiltinGateway, HttpClientWorker, HttpServer,
                             generate_trace)
from repro.apps.http.server import BASE_CPU_S, HTTP_PORT, PER_BYTE_CPU_S
from repro.apps.http.trace import MAX_SIZE, MIN_SIZE
from repro.asps.http import http_gateway_asp
from repro.net import Network
from repro.net.packet import tcp_packet
from repro.runtime import Deployment


class TestTrace:
    def test_deterministic(self):
        a = generate_trace(500, seed=3)
        b = generate_trace(500, seed=3)
        assert [e.path for e in a.entries] == [e.path for e in b.entries]

    def test_different_seeds_differ(self):
        a = generate_trace(500, seed=3)
        b = generate_trace(500, seed=4)
        assert [e.path for e in a.entries] != [e.path for e in b.entries]

    def test_sizes_bounded(self):
        trace = generate_trace(1000, seed=1)
        assert all(MIN_SIZE <= s <= MAX_SIZE for s in trace.sizes.values())
        assert min(trace.sizes.values()) == MIN_SIZE  # the clip bites

    def test_zipf_head_is_hot(self):
        trace = generate_trace(20_000, seed=2)
        from collections import Counter

        counts = Counter(e.path for e in trace.entries)
        top10 = sum(c for _p, c in counts.most_common(10))
        assert top10 > 0.3 * len(trace)  # heavy head

    def test_request_stream_wraps(self):
        trace = generate_trace(10, seed=0)
        stream = trace.request_stream()
        first_pass = [next(stream) for _ in range(10)]
        second_pass = [next(stream) for _ in range(10)]
        assert first_pass == second_pass

    def test_entry_sizes_consistent_with_catalogue(self):
        trace = generate_trace(200, seed=5)
        assert all(trace.sizes[e.path] == e.size for e in trace.entries)


def client_server():
    net = Network(seed=8)
    c = net.add_host("c")
    s = net.add_host("s")
    net.link(c, s, bandwidth=100e6)
    net.finalize()
    trace = generate_trace(200, seed=8)
    server = HttpServer(net, s, trace.sizes)
    return net, c, s, trace, server


class TestServer:
    def test_serves_correct_body(self):
        net, c, s, trace, server = client_server()
        worker = HttpClientWorker(net, c, s.address, trace)
        worker.start()
        net.run(until=1.0)
        assert worker.completed
        first = worker.completed[0]
        assert first.bytes_received == trace.entries[0].size

    def test_closed_loop_issues_continuously(self):
        net, c, s, trace, server = client_server()
        worker = HttpClientWorker(net, c, s.address, trace)
        worker.start()
        net.run(until=5.0)
        assert len(worker.completed) > 50
        assert server.requests_served >= len(worker.completed)

    def test_cpu_saturation_bounds_throughput(self):
        net, c, s, trace, server = client_server()
        workers = [HttpClientWorker(net, c, s.address, trace,
                                    trace_offset=i * 13)
                   for i in range(12)]
        for w in workers:
            w.start()
        net.run(until=6.0)
        total = sum(len(w.completed) for w in workers)
        mean_cpu = BASE_CPU_S + trace.mean_size * PER_BYTE_CPU_S
        capacity = 6.0 / mean_cpu
        assert total <= capacity * 1.05
        assert total >= capacity * 0.7  # saturated, not idle

    def test_404_for_unknown_path(self):
        net, c, s, trace, server = client_server()
        # A trace entry for a path the server does not have.
        from repro.apps.http.trace import Trace, TraceEntry

        ghost = Trace(entries=[TraceEntry("/ghost.html", 100)],
                      sizes={})
        worker = HttpClientWorker(net, c, s.address, ghost)
        worker.start()
        net.run(until=1.0)
        assert server.errors >= 1

    def test_latency_measured(self):
        net, c, s, trace, server = client_server()
        worker = HttpClientWorker(net, c, s.address, trace)
        worker.start()
        net.run(until=2.0)
        assert worker.mean_latency((0.0, 2.0)) > 0


class TestBuiltinGateway:
    def gateway_net(self):
        net = Network(seed=8)
        c = net.add_host("c")
        g = net.add_router("g")
        s0 = net.add_host("s0")
        s1 = net.add_host("s1")
        net.link(c, g)
        net.link(g, s0, bandwidth=100e6)
        net.link(g, s1, bandwidth=100e6)
        net.finalize()
        trace = generate_trace(100, seed=8)
        servers = [HttpServer(net, s0, trace.sizes),
                   HttpServer(net, s1, trace.sizes)]
        virtual = g.interfaces[0].address
        gateway = BuiltinGateway(g, virtual, [s0.address, s1.address])
        return net, c, virtual, trace, servers, gateway

    def test_balances_alternating(self):
        net, c, virtual, trace, servers, gateway = self.gateway_net()
        worker = HttpClientWorker(net, c, virtual, trace)
        worker.start()
        net.run(until=3.0)
        served = [s.requests_served for s in servers]
        assert sum(served) > 20
        assert min(served) / max(served) > 0.8

    def test_connection_affinity(self):
        net, c, virtual, trace, servers, gateway = self.gateway_net()
        worker = HttpClientWorker(net, c, virtual, trace)
        worker.start()
        net.run(until=2.0)
        # Every response body completed -> no connection was split
        # across servers mid-stream.
        assert worker.failures == 0
        assert all(r.bytes_received == trace.sizes[r.path]
                   for r in worker.completed)

    def test_client_sees_only_virtual_address(self):
        net, c, virtual, trace, servers, gateway = self.gateway_net()
        sources = set()
        c.receive_taps.append(
            lambda p, i: sources.add(str(p.ip.src)))
        worker = HttpClientWorker(net, c, virtual, trace)
        worker.start()
        net.run(until=1.0)
        assert sources == {str(virtual)}

    def test_crash_loses_the_connection_table_and_binds_again(self):
        net, c, virtual, trace, servers, gateway = self.gateway_net()
        worker = HttpClientWorker(net, c, virtual, trace)
        worker.start()
        net.run(until=1.0)
        assert gateway.bindings
        bound = gateway.stats.requests_bound
        net.faults.crash("g")  # the native layer has no uninstall()
        assert gateway.bindings == {}
        net.faults.restart("g")
        net.run(until=4.0)
        assert gateway.stats.requests_bound > bound
        assert gateway.bindings

    @pytest.mark.parametrize("kind", ["builtin", "asp"])
    def test_work_queued_before_a_crash_dies_with_the_node(self, kind):
        """Both gateways keep their CPU queue under one crash guard: a
        SYN still queued when the gateway crashes is dropped, not run
        after the restart."""
        net = Network(seed=8)
        c, g, s = net.add_host("c"), net.add_router("g"), net.add_host("s")
        net.link(c, g)
        net.link(g, s)
        net.finalize()
        virtual = g.interfaces[0].address
        if kind == "builtin":
            layer = BuiltinGateway(g, virtual, [s.address])
        else:
            Deployment().install(
                http_gateway_asp(str(virtual), [str(s.address)]), [g])
            layer = g.planp
        layer.cpu.per_item_s = 0.5
        got, drops = [], []
        s.receive_taps.append(lambda p, iface: got.append(p))
        g.drop_taps.append(lambda p, reason: drops.append(reason))
        c.ip_send(tcp_packet(c.address, virtual, 1234, HTTP_PORT, syn=True))
        net.sim.at(0.1, g.crash)
        net.sim.at(0.2, g.restart)
        net.run(until=1.0)
        assert got == []
        assert drops == ["node-down"] and g.stats.dropped_down == 1

    def test_needs_at_least_one_server(self):
        net = Network(seed=1)
        g = net.add_router("g")
        h = net.add_host("h")
        net.link(g, h)
        net.finalize()
        with pytest.raises(ValueError):
            BuiltinGateway(g, g.interfaces[0].address, [])
