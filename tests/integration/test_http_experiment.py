"""Integration: the HTTP cluster experiment (figure 8), scaled down."""

import pytest

from repro.apps.http import generate_trace, run_http_experiment

DURATION = 10.0
WARMUP = 3.0


#: the figure's grid: which curve is run at which client count
GRID = {"single": (4, 8), "asp": (2, 4, 8), "builtin": (2, 4, 8),
        "disjoint": (8,)}


@pytest.fixture(scope="module")
def grid():
    trace = generate_trace(4000, seed=11)
    return {mode: {n: run_http_experiment(mode=mode, n_clients=n,
                                          duration=DURATION,
                                          warmup=WARMUP, trace=trace)
                   for n in loads}
            for mode, loads in GRID.items()}


@pytest.fixture(scope="module")
def curves(grid):
    """Every curve at saturation (8 clients)."""
    return {mode: cells[8] for mode, cells in grid.items()}


def rps(result):
    return result.figures["throughput_rps"]


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
        two = run_http_experiment(mode="asp", n_clients=12,
                                  duration=8.0, warmup=2.0,
                                  n_servers=2, trace=trace,
                                  gateway_cpu_s=0.0)
        three = run_http_experiment(mode="asp", n_clients=12,
                                    duration=8.0, warmup=2.0,
                                    n_servers=3, trace=trace,
                                    gateway_cpu_s=0.0)
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
        return {strategy: run_http_experiment(
            mode="asp", n_clients=4, duration=6.0, warmup=2.0,
            strategy=strategy, trace=trace)
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
