"""Integration: the HTTP cluster experiment (figure 8), scaled down."""

import pytest

from repro.apps.http import (HttpClientWorker, HttpServer, generate_trace,
                             run_http_experiment)
from repro.apps.http.experiment import GATEWAY_CPU_S, HttpExperimentResult
from repro.asps import http_gateway_asp
from repro.net import Network
from repro.runtime.deployment import Deployment

DURATION = 10.0
WARMUP = 3.0


#: the figure's grid: which curve is run at which client count
GRID = {"single": (4, 8), "asp": (2, 4, 8), "builtin": (2, 4, 8),
        "disjoint": (8,)}


@pytest.fixture(scope="module")
def grid():
    return {mode: {n: run_http_experiment(mode=mode, n_clients=n,
                                          duration=DURATION,
                                          warmup=WARMUP)
                   for n in loads}
            for mode, loads in GRID.items()}


@pytest.fixture(scope="module")
def curves(grid):
    """Every curve at saturation (8 clients)."""
    return {mode: cells[8] for mode, cells in grid.items()}


def rps(result):
    return result.figures["throughput_rps"]


def asp_cluster(*, n_servers, trace, strategy="modulo",
                gateway_cpu_s=GATEWAY_CPU_S, n_clients, duration, warmup):
    """Figure 8's ASP cluster built by hand, the gateway program
    regenerated for ``n_servers`` and ``strategy``."""
    net = Network(seed=11)
    gateway = net.add_router("gateway")
    server_hosts = [net.add_host(f"server{i}") for i in range(n_servers)]
    for host in server_hosts:
        net.link(host, gateway, bandwidth=100e6, latency=0.0002)
    client_hosts = [net.add_host(f"client{i}") for i in range(n_clients)]
    for host in client_hosts:
        net.link(host, gateway, bandwidth=10e6, latency=0.0005)
    net.finalize()
    servers = [HttpServer(net, host, trace.sizes) for host in server_hosts]
    virtual = gateway.interfaces[0].address
    Deployment().install(
        http_gateway_asp(str(virtual), [str(h.address) for h in server_hosts],
                         strategy=strategy), [gateway])
    gateway.planp.cpu.per_item_s = gateway_cpu_s
    workers = [HttpClientWorker(net, host, virtual, trace,
                                trace_offset=i * 97)
               for i, host in enumerate(client_hosts)]
    for i, worker in enumerate(workers):
        worker.start(at=0.001 * i)
    net.run(until=duration)
    completed = sum(1 for w in workers for r in w.completed
                    if warmup <= r.completed < duration)
    return HttpExperimentResult(seed=11, figures={
        "throughput_rps": completed / (duration - warmup),
        "per_server_served": {s.host.name: s.requests_served
                              for s in servers},
        "failures": sum(w.failures for w in workers)})


class TestFig8Shape:
    def test_asp_close_to_builtin(self, grid):
        """Curve b vs curve c: 'little or no difference', at any load."""
        for n in GRID["asp"]:
            ratio = rps(grid["asp"][n]) / rps(grid["builtin"][n])
            assert ratio == pytest.approx(1.0, abs=0.05), n

    def test_asp_vs_single_server_factor(self, curves):
        """The paper's 1.75x headline."""
        ratio = rps(curves["asp"]) / rps(curves["single"])
        assert 1.5 < ratio < 1.95

    def test_gateway_contention_below_disjoint(self, curves):
        """~85% of two servers with disjoint clients."""
        ratio = rps(curves["asp"]) / rps(curves["disjoint"])
        assert 0.75 < ratio < 0.95

    def test_single_server_plateaus_while_cluster_gains(self, grid):
        """Doubling the clients from 4 to 8 barely moves the single
        server; the cluster still gains."""
        gain = {mode: rps(grid[mode][8]) / rps(grid[mode][4])
                for mode in ("single", "asp")}
        assert gain["single"] < 1.15
        assert gain["asp"] > gain["single"]

    def test_load_balanced_evenly(self, curves):
        assert curves["asp"].balance_ratio > 0.95

    def test_no_failed_requests(self, curves):
        for result in curves.values():
            assert result.figures["failures"] == 0

    def test_single_uses_one_server(self, curves):
        served = curves["single"].figures["per_server_served"]
        assert served["server1"] == 0
        assert served["server0"] > 0


class TestScaling:
    def test_throughput_grows_until_saturation(self, grid):
        assert rps(grid["asp"][8]) > rps(grid["asp"][2]) * 1.5

    def test_three_server_cluster_scales_further(self):
        """The reconfigurability claim: regenerate the ASP for three
        servers and capacity grows."""
        trace = generate_trace(3000, seed=11)
        # a free gateway, so the servers are the bottleneck
        two = asp_cluster(n_servers=2, trace=trace, gateway_cpu_s=0.0,
                          n_clients=12, duration=8.0, warmup=2.0)
        three = asp_cluster(n_servers=3, trace=trace, gateway_cpu_s=0.0,
                            n_clients=12, duration=8.0, warmup=2.0)
        assert (three.figures["throughput_rps"]
                > two.figures["throughput_rps"] * 1.2)
        assert len(three.figures["per_server_served"]) == 3
        assert three.balance_ratio > 0.9


class TestStrategies:
    """Paper section 5's "several load-balancing algorithms": regenerate
    the gateway ASP per strategy and compare."""

    @pytest.fixture(scope="class")
    def by_strategy(self):
        trace = generate_trace(2000, seed=11)
        return {strategy: asp_cluster(
            n_servers=2, trace=trace, strategy=strategy, n_clients=4,
            duration=6.0, warmup=2.0)
            for strategy in ("modulo", "srchash", "random")}

    @pytest.mark.parametrize("strategy", ["modulo", "srchash", "random"])
    def test_strategies_all_work(self, by_strategy, strategy):
        result = by_strategy[strategy]
        assert result.figures["failures"] == 0
        assert rps(result) > 50

    def test_strategy_moves_balance_not_throughput(self, by_strategy):
        # round-robin binding, the paper's choice, balances tightest...
        assert by_strategy["modulo"].balance_ratio \
            >= by_strategy["random"].balance_ratio - 0.02
        # ...and no strategy buys or costs a tenth of the throughput
        rates = [rps(result) for result in by_strategy.values()]
        assert max(rates) / min(rates) < 1.1
