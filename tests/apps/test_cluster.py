"""Cluster toolkit tests: health checks and automatic reconfiguration."""

from repro.apps.http import HttpClientWorker, HttpServer, generate_trace
from repro.apps.http.client import REQUEST_TIMEOUT_S
from repro.apps.http.cluster import (ClusterManager, HealthResponder)
from repro.net import Network


def cluster_net(n_servers=2):
    net = Network(seed=51)
    gateway = net.add_router("gw")
    admin = net.add_host("admin")
    net.link(admin, gateway, bandwidth=100e6)
    servers = []
    for i in range(n_servers):
        host = net.add_host(f"s{i}")
        net.link(host, gateway, bandwidth=100e6)
        servers.append(host)
    client = net.add_host("client")
    net.link(client, gateway)
    net.finalize()
    trace = generate_trace(1500, seed=51)
    https = [HttpServer(net, s, trace.sizes) for s in servers]
    responders = [HealthResponder(net, s) for s in servers]
    virtual = gateway.interfaces[0].address
    manager = ClusterManager(net, admin, gateway, virtual, servers)
    return (net, gateway, admin, servers, client, trace, https,
            responders, virtual, manager)


class TestHealthChecks:
    def test_initial_deploy_over_network(self):
        (net, gateway, admin, servers, client, trace, https, responders,
         virtual, manager) = cluster_net()
        net.run(until=2.0)
        assert gateway.planp is not None
        assert gateway.planp.loaded is not None
        assert manager.generation == 1
        assert all(r.pings_answered > 0 for r in responders)

    def test_balanced_service_through_managed_gateway(self):
        (net, gateway, admin, servers, client, trace, https, responders,
         virtual, manager) = cluster_net()
        worker = HttpClientWorker(net, client, virtual, trace)
        worker.start(at=0.5)
        net.run(until=6.0)
        assert len(worker.completed) > 50
        assert all(h.requests_served > 0 for h in https)


class TestFailover:
    def test_dead_server_removed_from_rotation(self):
        (net, gateway, admin, servers, client, trace, https, responders,
         virtual, manager) = cluster_net()
        worker = HttpClientWorker(net, client, virtual, trace)
        worker.start(at=0.5)
        net.sim.at(5.0, responders[1].stop)  # s1 crashes
        # Its HTTP side dies too: new connections to it would hang, so
        # also silence the server by dropping its routes at the gateway.
        net.run(until=20.0)

        assert manager.generation >= 2
        assert manager.alive == {"s0"}
        served_after = https[1].requests_served
        net.run(until=25.0)
        # s1 receives nothing new once removed from the program.
        assert https[1].requests_served == served_after
        # Meanwhile the service keeps completing requests.
        late = [r for r in worker.completed if r.completed > 21.0]
        assert late
        # The service gap: between two completions the client never
        # waits longer than detection (under 2 s) plus one request
        # timeout.
        done = sorted(r.completed for r in worker.completed)
        assert max(b - a for a, b in zip(done, done[1:]) if b > 5.0) \
            < REQUEST_TIMEOUT_S + 2.0

    def test_recovered_server_rejoins(self):
        (net, gateway, admin, servers, client, trace, https, responders,
         virtual, manager) = cluster_net()
        net.sim.at(3.0, responders[1].stop)
        net.sim.at(8.0, lambda: setattr(responders[1], "alive", True))
        net.run(until=12.0)
        assert manager.alive == {"s0", "s1"}
        assert manager.generation >= 3  # up, down, up again

    def test_events_recorded(self):
        (net, gateway, admin, servers, client, trace, https, responders,
         virtual, manager) = cluster_net()
        net.sim.at(3.0, responders[0].stop)
        net.run(until=8.0)
        alives = [e.alive for e in manager.events]
        assert ("s0", "s1") in alives
        assert ("s1",) in alives
