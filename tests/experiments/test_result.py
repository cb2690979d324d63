"""The unified ExperimentResult: params/figures out, keyword-only in."""

import json

import pytest

from repro.apps.audio import run_audio_experiment, run_gap_sweep
from repro.apps.http import run_fig8_sweep, run_http_experiment
from repro.apps.mpeg import run_mpeg_experiment
from repro.experiments import run_engine_microbench
from repro.experiments.result import (ExperimentResult,
                                      deterministic_metrics, jsonify)
from repro.net.sim import Simulator
from repro.net.topology import Network


class TestUnifiedShape:
    def test_audio_result_has_unified_fields(self):
        result = run_audio_experiment(duration=3.0, seed=5)
        assert result.name == "audio"
        assert result.params["adaptation"] is True
        assert result.params["duration"] == 3.0
        assert result.seed == 5
        assert "silent_periods" in result.figures
        assert isinstance(result.metrics, dict)

    def test_flat_attribute_access_is_gone(self):
        result = run_audio_experiment(duration=2.0, seed=5)
        assert result.figures["frames_received"] > 0
        with pytest.raises(AttributeError):
            result.frames_received
        with pytest.raises(AttributeError):
            result.adaptation

    def test_unknown_attribute_raises(self):
        result = run_audio_experiment(duration=2.0, seed=5)
        with pytest.raises(AttributeError):
            result.no_such_field

    def test_http_legacy_surface(self):
        result = run_http_experiment(mode="single", n_clients=2,
                                     duration=3.0, warmup=1.0)
        assert result.params["mode"] == "single"
        assert result.params["n_clients"] == 2
        assert result.figures["throughput_rps"] > 0
        assert 0 < result.balance_ratio <= 1.0

    def test_json_roundtrip_rehydrates_domain_objects(self):
        result = run_audio_experiment(duration=3.0, seed=5)
        loaded = type(result).from_json(result.to_json())
        assert loaded.to_json() == result.to_json()
        sample = loaded.figures["bandwidth_series"][0]
        assert hasattr(sample, "kbps")  # a BandwidthSample again
        assert loaded.dominant_quality_between(0, 3.0) \
            == result.dominant_quality_between(0, 3.0)
        assert set(loaded.figures["quality_fractions"]) \
            == set(result.figures["quality_fractions"])

    def test_record_is_json_types_only(self):
        result = run_mpeg_experiment(n_clients=2, duration=4.0)
        json.dumps(result.record())  # must not raise

    def test_base_from_json_works_without_subclass(self):
        result = run_mpeg_experiment(n_clients=2, duration=4.0)
        base = ExperimentResult.from_json(result.to_json())
        assert base.figures["server_sessions"] \
            == result.figures["server_sessions"]


class TestVolatileAndDeterminism:
    def test_codegen_ms_is_volatile(self):
        result = run_http_experiment(mode="asp", n_clients=2,
                                     duration=3.0, warmup=1.0)
        assert "codegen_ms" not in result.record()["figures"]
        assert result.volatile()["codegen_ms"] > 0
        assert result.figures["codegen_ms"] is not None

    def test_microbench_elapsed_is_volatile(self):
        result = run_engine_microbench(engine="builtin", n_packets=200)
        assert "elapsed_s" not in result.record()["figures"]
        assert result.volatile()["elapsed_s"] > 0
        assert result.us_per_packet > 0

    def test_deterministic_metrics_drops_wall_clock(self):
        metrics = {"drops_total": 3, "global.jit.codegen_ms.sum": 1.2,
                   "jit.verify_ms.mean": 0.5, "elapsed_ms": 9.1,
                   "sim.events_executed": 10, "node.a.packets_in": 7}
        kept = deterministic_metrics(metrics)
        assert kept == {"drops_total": 3, "sim.events_executed": 10,
                        "node.a.packets_in": 7}

    def test_deterministic_metrics_keeps_counts_and_ms_substrings(self):
        # *_ms.count is an event count, and names merely containing
        # "_ms" are not timers: both stay in the canonical record.
        metrics = {"jit.verify_ms.count": 2, "jit.verify_ms.sum": 1.0,
                   "jit.verify_ms.min": 0.1, "jit.verify_ms.max": 0.9,
                   "dropped_msgs": 5}
        assert deterministic_metrics(metrics) \
            == {"jit.verify_ms.count": 2, "dropped_msgs": 5}

    def test_same_seed_same_json(self):
        a = run_audio_experiment(duration=3.0, seed=9,
                                 constant_load_bps=1_600_000)
        b = run_audio_experiment(duration=3.0, seed=9,
                                 constant_load_bps=1_600_000)
        assert a.to_json() == b.to_json()

    def test_jsonify_handles_nested_payloads(self):
        from dataclasses import dataclass

        @dataclass
        class Row:
            x: int

        doc = jsonify({"rows": [Row(1), Row(2)], "k": {3: (4, 5)},
                       "s": {2, 1}})
        assert doc == {"rows": [{"x": 1}, {"x": 2}],
                       "k": {"3": [4, 5]}, "s": [1, 2]}


class TestKeywordOnly:
    """Every entry point that carried a one-release positional shim is
    plain keyword-only now: Python itself raises the ``TypeError``."""

    @pytest.mark.parametrize("call", [
        lambda: Simulator(7),
        lambda: Network(7),
        lambda: run_http_experiment("single", 2, duration=3.0),
        lambda: run_fig8_sweep([2], modes=("single",), duration=3.0),
        lambda: run_gap_sweep([1_900_000], duration=2.0),
        lambda: run_engine_microbench("builtin", 100),
    ], ids=["Simulator", "Network", "run_http_experiment",
            "run_fig8_sweep", "run_gap_sweep", "run_engine_microbench"])
    def test_positional_call_raises(self, call, recwarn):
        with pytest.raises(TypeError, match="positional"):
            call()
        assert not recwarn.list  # no DeprecationWarning path left
