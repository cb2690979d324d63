"""The web overload drill: cell behavior, defense counters, record
determinism through the harness, and the poisoned-shedder chaos path."""

import json

import pytest

from repro.experiments.web import WebResult, run_web_experiment
from repro.harness import Runner, Scenario, registry

SHORT = dict(duration=4.0, warmup=1.5, seed=17)

#: DESIGN §14's floors, as fractions of no-attack goodput: kept with the
#: shedder on, and what an undefended cluster must fall under
RETENTION_FLOOR = 0.70
COLLAPSE_CEILING = 0.30


@pytest.fixture(scope="module")
def baseline():
    return run_web_experiment(attack="none", shedding=False, **SHORT)


@pytest.fixture(scope="module")
def syn_open():
    return run_web_experiment(attack="syn", shedding=False, **SHORT)


@pytest.fixture(scope="module")
def syn_shed():
    return run_web_experiment(attack="syn", shedding=True, **SHORT)


class TestCells:
    def test_baseline_serves_cleanly(self, baseline):
        assert baseline.goodput > 50
        assert baseline.figures["server_shed"] == 0
        assert baseline.figures["gateway_dropped"] == 0
        assert baseline.figures["good_abandoned"] == 0
        assert baseline.figures["healthy"] is True

    def test_syn_flood_collapses_open_cluster(self, baseline, syn_open):
        figs = syn_open.figures
        assert figs["flood_sent"] > 500
        # the bounded listen queue absorbs the flood's state cost...
        assert figs["syn_backlog_drops"] > 0
        # ...but the goods still lose: slots are pinned by half-open
        # connections the attackers never complete
        assert syn_open.goodput < COLLAPSE_CEILING * baseline.goodput

    def test_shedding_restores_syn_goodput(self, baseline, syn_open,
                                           syn_shed):
        figs = syn_shed.figures
        # the gateway filter eats the flood before the victim sees it
        assert figs["gateway_dropped"] > 0.9 * figs["flood_sent"]
        assert syn_shed.goodput > 2 * syn_open.goodput
        assert syn_shed.goodput >= RETENTION_FLOOR * baseline.goodput
        assert figs["trips"] == 0  # the defense itself stays healthy

    def test_elephant_shedding_starves_the_elephant(self, baseline):
        shed = run_web_experiment(attack="elephant", shedding=True,
                                  **SHORT)
        figs = shed.figures
        assert figs["gateway_dropped"] > 0
        # blocked mid-transfer, the elephants time out and give up
        # instead of monopolizing the serial CPU
        assert figs["attacker_completed"] <= 2
        assert shed.goodput >= RETENTION_FLOOR * baseline.goodput
        # the control: undefended, the same pile-on takes the goods down
        undefended = run_web_experiment(attack="elephant",
                                        shedding=False, **SHORT)
        assert undefended.goodput < COLLAPSE_CEILING * baseline.goodput

    def test_flash_crowd_is_shed_not_crashed(self):
        shed = run_web_experiment(attack="flash", shedding=True,
                                  **SHORT)
        figs = shed.figures
        assert figs["server_shed"] > 0  # degradation engaged
        assert figs["crowd_shed"] > 0
        assert shed.goodput > 0  # and the goods survive

    def test_validates_attack_and_window(self):
        with pytest.raises(ValueError, match="attack"):
            run_web_experiment(attack="teardrop")
        with pytest.raises(ValueError, match="warmup"):
            run_web_experiment(duration=2.0, warmup=2.0)


class TestDeterminism:
    def test_repeat_run_byte_identical(self, syn_open):
        again = run_web_experiment(attack="syn", shedding=False,
                                   **SHORT)
        assert again.to_json() == syn_open.to_json()

    def test_parallel_harness_byte_identical(self):
        scenarios = [
            Scenario("web/t-open", "web",
                     {"attack": "syn", "shedding": False,
                      "duration": 3.0, "warmup": 1.0}, seed=17),
            Scenario("web/t-shed", "web",
                     {"attack": "syn", "shedding": True,
                      "duration": 3.0, "warmup": 1.0}, seed=17),
        ]
        serial = Runner(use_cache=False, workers=1).sweep(scenarios)
        parallel = Runner(use_cache=False, workers=2).sweep(scenarios)
        for name, record in serial.records_by_name().items():
            other = parallel.records_by_name()[name]
            assert json.dumps(record, sort_keys=True) \
                == json.dumps(other, sort_keys=True)


class TestRegistry:
    def test_registered_with_result_class(self):
        reg = registry.get("web")
        assert reg.result_cls is WebResult

    def test_run_scenario_stamps_params(self):
        scenario = Scenario("web/unit", "web",
                            {"attack": "none", "shedding": True,
                             "duration": 2.0, "warmup": 0.5,
                             "poison_at": 1.5}, seed=17)
        result = registry.run(scenario)
        assert result.name == "web/unit"
        assert result.params["attack"] == "none"
        # a param the experiment does not report itself is stamped too
        assert result.params["poison_at"] == 1.5

    def test_record_rehydrates(self):
        result = run_web_experiment(attack="none", shedding=False,
                                    duration=2.0, warmup=0.5, seed=17)
        line = {"record": result.record(),
                "volatile": result.volatile()}
        back = registry.rehydrate(line)
        assert isinstance(back, WebResult)
        assert back.goodput == result.goodput
        assert back.record() == result.record()


class TestPoisonedShedder:
    def test_breaker_degrades_to_standard_ip(self):
        result = run_web_experiment(attack="syn", shedding=True,
                                    poison_at=2.0, duration=5.0,
                                    warmup=1.5, seed=17)
        figs = result.figures
        # the poisoned shedder trips the breaker and is quarantined...
        assert figs["trips"] >= 1
        assert figs["quarantines"] >= 1
        # ...the gateway degrades to standard IP instead of dying: the
        # drill completes and the goods still finish requests
        assert result.goodput > 0
        # half-open reinstall replaced the poisoned engine by the end
        assert figs["quarantined_at_end"] == 0
        assert figs["healthy"] is True

    def test_poisoned_drill_deterministic(self):
        kw = dict(attack="syn", shedding=True, poison_at=2.0,
                  duration=4.0, warmup=1.5, seed=17)
        assert run_web_experiment(**kw).to_json() \
            == run_web_experiment(**kw).to_json()
