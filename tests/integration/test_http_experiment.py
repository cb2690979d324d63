"""Integration: the HTTP cluster experiment (figure 8), scaled down."""

import pytest

from repro.apps.http import generate_trace, run_http_experiment

DURATION = 10.0
WARMUP = 3.0


@pytest.fixture(scope="module")
def curves():
    trace = generate_trace(4000, seed=11)
    return {mode: run_http_experiment(mode=mode, n_clients=8,
                                      duration=DURATION,
                                      warmup=WARMUP, trace=trace)
            for mode in ("single", "asp", "builtin", "disjoint")}


class TestFig8Shape:
    def test_asp_close_to_builtin(self, curves):
        """Curve b vs curve c: 'little or no difference'."""
        ratio = (curves["asp"].figures["throughput_rps"]
                 / curves["builtin"].figures["throughput_rps"])
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_asp_vs_single_server_factor(self, curves):
        """The paper's 1.75x headline."""
        ratio = (curves["asp"].figures["throughput_rps"]
                 / curves["single"].figures["throughput_rps"])
        assert 1.5 < ratio < 1.95

    def test_gateway_contention_below_disjoint(self, curves):
        """~85% of two servers with disjoint clients."""
        ratio = (curves["asp"].figures["throughput_rps"]
                 / curves["disjoint"].figures["throughput_rps"])
        assert 0.75 < ratio < 0.95

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
    def test_throughput_grows_until_saturation(self):
        trace = generate_trace(3000, seed=11)
        light = run_http_experiment(mode="asp", n_clients=2,
                                    duration=8.0, warmup=2.0,
                                    trace=trace)
        heavy = run_http_experiment(mode="asp", n_clients=8,
                                    duration=8.0, warmup=2.0,
                                    trace=trace)
        assert (heavy.figures["throughput_rps"]
                > light.figures["throughput_rps"] * 1.5)

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
    @pytest.mark.parametrize("strategy", ["modulo", "srchash", "random"])
    def test_strategies_all_work(self, strategy):
        trace = generate_trace(2000, seed=11)
        result = run_http_experiment(mode="asp", n_clients=4,
                                     duration=6.0, warmup=2.0,
                                     strategy=strategy, trace=trace)
        assert result.figures["failures"] == 0
        assert result.figures["throughput_rps"] > 50
