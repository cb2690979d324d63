"""The determinism contract: records are pure functions of
(code, params, seed), whichever process produced them."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness import Runner, Scenario
from repro.harness.runner import run_scenario_line

# Cheap parameterizations drawn from every experiment family that the
# parallel runner fans out (kept tiny: each example runs a full sweep
# twice, serially and through a process pool).
POOL = [
    ("audio", {"duration": 2.0}),
    ("audio", {"duration": 2.0, "adaptation": False}),
    ("mpeg", {"n_clients": 2, "duration": 3.0}),
    ("audio_gap_sweep", {"load_levels_bps": [1_900_000],
                         "duration": 2.0}),
]


def scenarios_from(picks, seed):
    return [Scenario(name=f"case{i}", experiment=exp, params=params,
                     seed=seed + i)
            for i, (exp, params) in enumerate(picks)]


class TestSameSeedSameRecord:
    def test_line_is_reproducible(self):
        scenario = Scenario("s", "audio", {"duration": 2.0}, seed=13)
        a = run_scenario_line(scenario)
        b = run_scenario_line(scenario)
        assert a["record"] == b["record"]
        assert a["cache_key"] == b["cache_key"]
        assert json.dumps(a["record"], sort_keys=True) \
            == json.dumps(b["record"], sort_keys=True)

    def test_different_seed_different_record(self):
        base = {"duration": 2.0, "constant_load_bps": 1_600_000}
        a = run_scenario_line(Scenario("s", "audio", base, seed=1))
        b = run_scenario_line(Scenario("s", "audio", base, seed=2))
        assert a["record"] != b["record"]
        assert a["cache_key"] != b["cache_key"]


class TestSerialParallelEquivalence:
    def test_fixed_matrix_byte_identical(self):
        scenarios = scenarios_from(POOL[:3], seed=7)
        serial = Runner(use_cache=False, workers=1).sweep(scenarios)
        parallel = Runner(use_cache=False, workers=2).sweep(scenarios)
        assert serial.records_by_name() == parallel.records_by_name()
        for name, record in serial.records_by_name().items():
            other = parallel.records_by_name()[name]
            assert json.dumps(record, sort_keys=True).encode() \
                == json.dumps(other, sort_keys=True).encode()

    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(picks=st.lists(st.sampled_from(POOL), min_size=2,
                          max_size=3),
           seed=st.integers(min_value=0, max_value=99))
    def test_random_small_matrices(self, picks, seed):
        scenarios = scenarios_from(picks, seed)
        serial = Runner(use_cache=False, workers=1).sweep(scenarios)
        parallel = Runner(use_cache=False, workers=2).sweep(scenarios)
        assert serial.records_by_name() == parallel.records_by_name()

    def test_parallel_store_rehydrates_to_serial_json(self, tmp_path):
        from repro.harness import ResultStore, rehydrate

        scenarios = scenarios_from(POOL[:2], seed=21)
        store = ResultStore(tmp_path)
        Runner(store, workers=2, use_cache=False).sweep(scenarios)
        direct = {s.name: run_scenario_line(s)["record"]
                  for s in scenarios}
        for line in store.load():
            assert rehydrate(line).record() == direct[line["scenario"]]
