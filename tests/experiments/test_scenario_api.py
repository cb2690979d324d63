"""The Scenario API: keys, registry, cache, store, runner, CLI."""

import json

import pytest

from repro.experiments.result import ExperimentResult
from repro.harness import (ResultStore, Runner, Scenario, cache_key,
                           filter_scenarios, matrix, names, rehydrate,
                           smoke_matrix, standard_matrix)
from repro.harness import cache as cache_mod
from repro.harness import registry


class CountingResult(ExperimentResult):
    _EXPERIMENT = "_counting"


@pytest.fixture
def counting_experiment():
    """A registered throwaway experiment that counts invocations."""
    calls = []

    @registry.register("_counting", result_cls=CountingResult,
                       description="test double")
    def _run(*, seed, knob=1):
        calls.append((seed, knob))
        return CountingResult(params={"knob": knob}, seed=seed,
                              figures={"value": knob * 10})

    try:
        yield calls
    finally:
        registry._REGISTRY.pop("_counting", None)


class TestScenario:
    def test_key_is_stable_and_name_independent(self):
        a = Scenario("a", "audio", {"duration": 3.0}, seed=5)
        b = Scenario("b", "audio", {"duration": 3.0}, seed=5,
                     tags={"smoke"})
        assert a.key() == b.key()  # name/tags are presentation only

    def test_key_changes_with_params_and_seed(self):
        base = Scenario("s", "audio", {"duration": 3.0}, seed=5)
        assert base.key() != Scenario("s", "audio", {"duration": 4.0},
                                      seed=5).key()
        assert base.key() != Scenario("s", "audio", {"duration": 3.0},
                                      seed=6).key()

    def test_dict_roundtrip(self):
        s = Scenario("s", "mpeg", {"n_clients": 2}, seed=3,
                     tags={"smoke", "mpeg"})
        assert Scenario.from_dict(s.to_dict()) == s

    def test_filter_by_tag_and_name(self):
        scenarios = [Scenario("full/fig6", "audio", tags={"audio"}),
                     Scenario("full/fig8/asp", "http", tags={"http"})]
        assert [s.name for s in filter_scenarios(scenarios, "audio")] \
            == ["full/fig6"]
        assert [s.name for s in filter_scenarios(scenarios, "fig8")] \
            == ["full/fig8/asp"]
        assert len(filter_scenarios(scenarios, None)) == 2
        assert filter_scenarios(scenarios, "nope") == []


class TestRegistry:
    def test_every_experiment_is_registered(self):
        assert {"audio", "audio_gap_sweep", "http", "http_fig8_sweep",
                "mpeg", "images", "fig3", "microbench"} <= set(names())

    def test_unknown_experiment_is_a_keyerror(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            registry.get("bogus")

    def test_run_stamps_scenario_identity(self, counting_experiment):
        scenario = Scenario("my/run", "_counting", {"knob": 3}, seed=9)
        result = registry.run(scenario)
        assert result.name == "my/run"
        assert result.seed == 9
        assert result.params["knob"] == 3
        assert result.figures["value"] == 30
        assert counting_experiment == [(9, 3)]

    def test_rehydrate_uses_registered_result_class(
            self, counting_experiment):
        from repro.harness.runner import run_scenario_line

        line = run_scenario_line(
            Scenario("my/run", "_counting", {"knob": 2}, seed=1))
        result = rehydrate(line)
        assert isinstance(result, CountingResult)
        assert result.params["knob"] == 2


class TestCache:
    def test_cache_key_combines_scenario_and_code(self, monkeypatch):
        s = Scenario("s", "audio", {"duration": 3.0}, seed=5)
        before = cache_key(s)
        assert before == cache_key(s)
        monkeypatch.setattr(cache_mod, "_FINGERPRINT", "f" * 16)
        assert cache_key(s) != before  # code change invalidates

    def test_fingerprint_is_cached_per_process(self):
        assert cache_mod.code_fingerprint() \
            is cache_mod.code_fingerprint()


class TestStore:
    def line(self, name, key, value=1):
        return {"scenario": name, "experiment": "_counting", "seed": 0,
                "tags": [], "cache_key": key,
                "record": {"name": name, "figures": {"value": value}},
                "volatile": {}, "elapsed_s": 0.0}

    def test_append_and_load(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(self.line("a", "k1"))
        store.append(self.line("b", "k2"))
        assert len(store) == 2
        assert [l["scenario"] for l in store.load()] == ["a", "b"]
        assert set(store.by_cache_key()) == {"k1", "k2"}

    def test_jsonl_on_disk(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(self.line("a", "k1"))
        raw = (tmp_path / "results.jsonl").read_text().splitlines()
        assert len(raw) == 1
        assert json.loads(raw[0])["cache_key"] == "k1"

    def test_by_name_latest_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(self.line("a", "k1", value=1))
        store.append(self.line("a", "k2", value=2))
        assert store.by_name()["a"]["record"]["figures"]["value"] == 2

    def test_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "nowhere")
        assert store.load() == []
        assert len(store) == 0


class TestRunner:
    def test_run_caches_by_content(self, tmp_path, counting_experiment):
        store = ResultStore(tmp_path)
        scenario = Scenario("s", "_counting", {"knob": 2}, seed=1)
        runner = Runner(store)
        first = runner.run(scenario)
        second = runner.run(scenario)
        assert counting_experiment == [(1, 2)]  # second was a hit
        assert first.to_json() == second.to_json()

    def test_no_cache_forces_rerun(self, tmp_path, counting_experiment):
        store = ResultStore(tmp_path)
        scenario = Scenario("s", "_counting", {}, seed=1)
        Runner(store).run(scenario)
        Runner(store, use_cache=False).run(scenario)
        assert len(counting_experiment) == 2

    def test_sweep_resumes_partial_store(self, tmp_path,
                                         counting_experiment):
        store = ResultStore(tmp_path)
        scenarios = [Scenario(f"s{i}", "_counting", {"knob": i}, seed=1)
                     for i in range(4)]
        Runner(store).sweep(scenarios[:2])  # "killed" after two
        report = Runner(store).sweep(scenarios)
        assert sorted(report.cached) == ["s0", "s1"]
        assert sorted(report.ran) == ["s2", "s3"]
        assert len(counting_experiment) == 4  # nothing re-ran
        assert len(report.lines) == 4

    def test_sweep_dedupes_names(self, counting_experiment):
        scenario = Scenario("s", "_counting", {}, seed=1)
        report = Runner().sweep([scenario, scenario])
        assert len(report.lines) == 1

    def test_cache_hit_serves_requested_name(self, tmp_path,
                                             counting_experiment):
        """A hit for a same-content scenario under another name is
        relabeled to the requested identity (and lands in the store
        under it, so name-keyed loads work)."""
        store = ResultStore(tmp_path)
        runner = Runner(store)
        runner.run(Scenario("standard/s", "_counting", {"knob": 2},
                            seed=1))
        result = runner.run(Scenario("full/s", "_counting", {"knob": 2},
                                     seed=1, tags={"report"}))
        assert counting_experiment == [(1, 2)]  # second was a hit
        assert result.name == "full/s"
        by_name = store.by_name()
        assert by_name["full/s"]["record"]["name"] == "full/s"
        assert by_name["full/s"]["tags"] == ["report"]
        assert by_name["standard/s"]["record"]["name"] == "standard/s"

    def test_sweep_runs_same_key_scenarios_once(self, tmp_path,
                                                counting_experiment):
        """Two scenarios with identical cache keys in one sweep execute
        once; the duplicate is served from the first completion."""
        store = ResultStore(tmp_path)
        twins = [Scenario("standard/s", "_counting", {"knob": 2},
                          seed=1),
                 Scenario("full/s", "_counting", {"knob": 2}, seed=1)]
        report = Runner(store).sweep(twins)
        assert counting_experiment == [(1, 2)]  # ran exactly once
        assert report.ran == ["standard/s"]
        assert report.cached == ["full/s"]
        assert {line["scenario"]: line["record"]["name"]
                for line in report.lines} \
            == {"standard/s": "standard/s", "full/s": "full/s"}

    def test_progress_callback_sees_both_kinds(self, tmp_path,
                                               counting_experiment):
        seen = []
        store = ResultStore(tmp_path)
        scenario = Scenario("s", "_counting", {}, seed=1)
        runner = Runner(store,
                        progress=lambda kind, line: seen.append(kind))
        runner.sweep([scenario])
        runner.sweep([scenario])
        assert seen == ["ran", "cached"]


class TestMatrices:
    def test_known_matrices_resolve(self):
        for name in ("all", "standard", "smoke", "report-quick",
                     "report-full"):
            scenarios = matrix(name)
            assert scenarios, name
            assert len({s.name for s in scenarios}) == len(scenarios)

    def test_smoke_scenarios_are_tagged(self):
        assert all("smoke" in s.tags for s in smoke_matrix())

    def test_standard_matrix_covers_every_figure(self):
        scenario_names = {s.name for s in standard_matrix()}
        for suffix in ("fig3", "fig6", "fig7", "fig8/asp", "mpeg/asps",
                       "images", "microbench/closure"):
            assert f"standard/{suffix}" in scenario_names

    def test_all_experiments_in_matrices_are_registered(self):
        registered = set(names())
        for s in matrix("all"):
            assert s.experiment in registered


class TestRunxCli:
    def test_list_shows_matrix(self, capsys):
        from repro.tools.runx import main

        assert main(["list", "--matrix", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "smoke/microbench-builtin" in out

    def test_sweep_then_require_cached(self, tmp_path, capsys):
        from repro.tools.runx import main

        argv = ["sweep", "--matrix", "smoke", "--filter", "microbench",
                "--results", str(tmp_path)]
        assert main(argv) == 0
        summary = json.loads((tmp_path / "sweep.json").read_text())
        assert len(summary["ran"]) == 2 and summary["cached"] == []

        assert main(argv + ["--require-cached"]) == 0
        summary = json.loads((tmp_path / "sweep.json").read_text())
        assert summary["ran"] == [] and len(summary["cached"]) == 2

    def test_require_cached_fails_on_cold_store(self, tmp_path):
        from repro.tools.runx import main

        assert main(["sweep", "--matrix", "smoke", "--filter",
                     "microbench", "--results",
                     str(tmp_path / "cold"), "--require-cached"]) == 1

    def test_run_by_name_prints_json(self, tmp_path, capsys):
        from repro.tools.runx import main

        assert main(["run", "smoke/microbench-builtin", "--results",
                     str(tmp_path), "--json"]) == 0
        out = capsys.readouterr().out
        record = json.loads(out.splitlines()[-1])
        assert record["experiment"] == "microbench"

    def test_run_unknown_name_errors(self, tmp_path, capsys):
        from repro.tools.runx import main

        assert main(["run", "no/such", "--results",
                     str(tmp_path)]) == 2
