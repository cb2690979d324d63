"""Benchmarks for the implemented §5 future-work extensions.

Not part of the paper's evaluation — these quantify the extensions the
paper only sketched: image distillation on slow links, network-based
ASP deployment, and the fault-tolerant cluster toolkit.
"""

import pytest

from repro.apps.images import run_image_experiment

from .conftest import print_table, shape_check


class TestImageDistillation:
    @pytest.fixture(scope="class")
    def pair(self):
        plain = run_image_experiment(distillation=False)
        distilled = run_image_experiment(distillation=True)
        rows = []
        for p in plain.figures["fetches"]:
            d = distilled.result_for(p.name)
            rows.append([p.name, f"{p.original_bytes}B",
                         f"{p.latency * 1000:.0f}ms",
                         f"{d.received_bytes}B",
                         f"{d.latency * 1000:.0f}ms"])
        print_table("Image distillation on a 64 kbit/s access link",
                    ["image", "original", "plain latency", "distilled",
                     "latency"], rows)
        return plain, distilled

    def test_latency_speedup(self, benchmark, pair):
        shape_check(benchmark)
        plain, distilled = pair
        speedup = plain.mean_latency() / distilled.mean_latency()
        print(f"\nmean-latency speedup: {speedup:.1f}x")
        assert speedup > 5

    def test_small_images_pass_through(self, benchmark, pair):
        shape_check(benchmark)
        _plain, distilled = pair
        assert not distilled.result_for("icon.simg").distilled

    def test_budget_ablation(self, benchmark):
        shape_check(benchmark)
        rows = []
        latencies = {}
        for budget in (1000, 3000, 10000):
            result = run_image_experiment(distillation=True,
                                          budget_bytes=budget)
            poster = result.result_for("poster.simg")
            latencies[budget] = poster.latency
            rows.append([budget, f"{poster.received_bytes}B",
                         f"{poster.width}x{poster.height}",
                         f"{poster.latency * 1000:.0f}ms"])
        print_table("Ablation: distillation byte budget (poster.simg)",
                    ["budget", "delivered", "dimensions", "latency"],
                    rows)
        # Bigger budgets keep more fidelity at more latency.
        assert latencies[10000] > latencies[1000]

    def test_image_experiment_benchmark(self, benchmark):
        benchmark.group = "image experiment"
        benchmark.pedantic(
            lambda: run_image_experiment(distillation=True),
            rounds=1, iterations=1)


class TestNetworkDeployment:
    def test_deployment_roundtrip_latency(self, benchmark):
        """Time to ship + verify + JIT an ASP across 3 hops, in
        simulated milliseconds (the control-plane cost of management)."""
        shape_check(benchmark)
        from repro.asps import http_gateway_asp
        from repro.net import Network
        from repro.runtime import DeploymentManager, DeploymentService

        net = Network(seed=61)
        admin = net.add_host("admin")
        previous = admin
        routers = []
        for i in range(3):
            router = net.add_router(f"r{i}")
            net.link(previous, router, bandwidth=100e6, latency=0.001)
            previous = router
            routers.append(router)
        net.finalize()
        for router in routers:
            DeploymentService(net, router)
        manager = DeploymentManager(net, admin)
        xfer = manager.push(
            http_gateway_asp("10.0.1.2", ["10.0.2.2", "10.0.3.2"]),
            [r.address for r in routers])
        net.run(until=5.0)
        assert manager.all_ok(xfer)
        latest = max(s.codegen_ms or 0.0
                     for s in manager.status(xfer).values())
        print(f"\n3-node deployment completed by t="
              f"{net.sim.now:.3f}s (max codegen {latest:.2f} ms)")


class TestClusterFaultTolerance:
    def test_failover_downtime(self, benchmark):
        """Requests complete before, during and after a server crash;
        measure the service gap."""
        shape_check(benchmark)
        from repro.apps.http import (HttpClientWorker, HttpServer,
                                     generate_trace)
        from repro.apps.http.cluster import (ClusterManager,
                                             HealthResponder)
        from repro.net import Network

        net = Network(seed=62)
        gateway = net.add_router("gw")
        admin = net.add_host("admin")
        net.link(admin, gateway, bandwidth=100e6)
        servers = []
        for i in range(2):
            host = net.add_host(f"s{i}")
            net.link(host, gateway, bandwidth=100e6)
            servers.append(host)
        client = net.add_host("client")
        net.link(client, gateway)
        net.finalize()
        trace = generate_trace(2000, seed=62)
        for s in servers:
            HttpServer(net, s, trace.sizes)
        responders = [HealthResponder(net, s) for s in servers]
        virtual = gateway.interfaces[0].address
        manager = ClusterManager(net, admin, gateway, virtual, servers,
                                 check_interval=0.5, timeout=0.25)
        worker = HttpClientWorker(net, client, virtual, trace,
                                  request_timeout=2.0)
        worker.start(at=0.5)
        net.sim.at(6.0, responders[0].stop)
        net.run(until=16.0)

        completions = sorted(r.completed for r in worker.completed)
        after_crash = [t for t in completions if t > 6.0]
        assert after_crash, "service never recovered"
        downtime = after_crash[0] - 6.0
        print(f"\nservice gap after crash: {downtime:.2f} s "
              f"(reconfigurations: {manager.generation - 1})")
        assert downtime < 5.0
        assert manager.alive == {"s1"}
