"""The end-to-end poisoned-ASP drill (the PR's acceptance scenario).

A known-bad ASP (raises on every payload byte divisible by 5) is
deployed over a 16-node topology: the canary health gate must abort the
staged rollout; a force-promote must be quarantined by the per-node
circuit breakers and automatically rolled back to generation N−1 on
every node, with traffic recovering to within 5% of the pre-deploy
baseline — deterministic under the seed, byte-identical through the
parallel harness.
"""

import json

from repro.experiments.chaos import run_chaos_experiment
from repro.harness import ResultStore, Runner, matrix


class TestPoisonedAspDrill:
    def setup_method(self):
        self.result = run_chaos_experiment(profile="drill", seed=5,
                                           n_routers=16, duration=12.0)
        self.fig = self.result.figures

    def test_canary_gate_aborts_bad_rollout(self):
        assert self.fig["canary_aborted"] is True
        assert "error budget" in self.fig["abort_reason"] \
            or "errors" in self.fig["abort_reason"]

    def test_force_promote_is_quarantined_and_rolled_back(self):
        assert self.fig["force_promoted"] is True
        assert self.fig["trips"] >= 16  # every node's breaker fired
        assert self.fig["rollbacks"] >= 1
        assert self.fig["quarantined_at_end"] == 0

    def test_every_node_back_on_previous_generation(self):
        generations = self.fig["final_generations"]
        assert len(generations) == 16
        assert len(set(generations.values())) == 1  # converged
        assert self.fig["healthy"] is True

    def test_traffic_recovers_within_5_percent(self):
        assert self.fig["baseline_delivered"] > 0
        assert abs(self.fig["recovery_ratio"] - 1.0) <= 0.05

    def test_lifecycle_metrics_snapshot(self):
        metrics = self.result.metrics
        assert metrics["lifecycle.managed_nodes"] == 16
        assert metrics["lifecycle.quarantined_nodes"] == 0
        assert metrics["lifecycle.rollbacks"] >= 1


class TestDrillDeterminism:
    def test_same_seed_same_record(self):
        a = run_chaos_experiment(profile="drill", seed=5, n_routers=16,
                                 duration=12.0)
        b = run_chaos_experiment(profile="drill", seed=5, n_routers=16,
                                 duration=12.0)
        assert a.record() == b.record()

    def test_byte_identical_through_parallel_harness(self, tmp_path):
        scenario = next(s for s in matrix("chaos")
                        if s.name == "chaos/drill-16")
        texts = []
        for workers in (1, 2):
            store = ResultStore(tmp_path / f"w{workers}")
            Runner(store, workers=workers).sweep([scenario])
            (line,) = [json.loads(line) for line in
                       (store.root / "results.jsonl").read_text()
                       .splitlines()]
            texts.append(json.dumps(line["record"], sort_keys=True))
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["figures"]["healthy"] is True

    def test_chaos_smoke_matrix_ends_healthy(self, tmp_path):
        """The CI gate: every chaos-smoke scenario converges back to
        healthy with zero quarantined nodes."""
        scenarios = [s for s in matrix("chaos")
                     if "chaos-smoke" in s.tags]
        assert scenarios
        store = ResultStore(tmp_path / "smoke")
        runner = Runner(store, workers=1)
        runner.sweep(scenarios)
        for line in (store.root / "results.jsonl").read_text() \
                .splitlines():
            record = json.loads(line)["record"]
            figures = record["figures"]
            assert figures["healthy"] is True, record["name"]
            assert figures["quarantined_at_end"] == 0, record["name"]
