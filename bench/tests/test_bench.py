"""The benchmark's own tests (smoke sizes; not part of tier 1).

Run as ``PYTHONPATH=src python -m pytest bench/tests -q`` from the
repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import metrics
from bench.__main__ import DEFAULT_SEED, ROOT, WORKLOADS, run_child, summarise

SIMULATOR_WORKLOADS = tuple(w for w in WORKLOADS if w != "deploy_cold")


def bench_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def rounds() -> dict[str, dict[str, dict]]:
    """Per workload: two rounds of the pinned seed (one traced) and one
    round of another seed, each in a child of its own as in a real run."""
    return {w: {"plain": run_child(w, DEFAULT_SEED, "smoke", False),
                "traced": run_child(w, DEFAULT_SEED, "smoke", True),
                "other": run_child(w, DEFAULT_SEED + 1, "smoke", False)}
            for w in WORKLOADS}


def test_smoke_run_of_everything_is_quick_and_correct(tmp_path):
    began = time.perf_counter()
    proc = bench_cli("--smoke", "--rounds", "1", "--out", str(tmp_path))
    assert time.perf_counter() - began < 30
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    report = json.loads((tmp_path / "results.json").read_text())
    assert set(report["results"]) == set(WORKLOADS)
    for workload in WORKLOADS:
        spans = (tmp_path / f"{workload}.spans.jsonl").read_text()
        first = json.loads(spans.splitlines()[0])
        assert {"id", "parent", "event", "layer", "entry",
                "start", "end"} == set(first)
    # every metric is printed by name with its unit
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert f" {metric.name} " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed_and_results_differ_across_seeds(
        rounds, workload):
    plain, traced, other = (rounds[workload][k]
                            for k in ("plain", "traced", "other"))
    assert plain["counts"] == traced["counts"]
    assert (plain["ops"], plain["attempted"]) == (traced["ops"],
                                                  traced["attempted"])
    assert other["digest"] != plain["digest"]
    assert other["failed"] == 0 and all(other["invariants"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_rounds_agree_and_match_the_pin(
        rounds, workload):
    result = summarise(workload, [rounds[workload]["plain"],
                                  rounds[workload]["traced"]])
    assert result["correct"], result["problems"]
    assert rounds[workload]["plain"]["digest"] \
        == rounds[workload]["traced"]["digest"]
    assert set(result["per_layer"]) == {m.name for m in metrics.PER_LAYER}
    assert all(value > 0 for value in result["end_to_end"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ledger_closes(rounds, workload):
    traced = rounds[workload]["traced"]
    assert metrics.ledger_gap_share(traced) <= metrics.LEDGER_TOLERANCE
    assert traced["trace"]["missing"] == []


def test_layers_split_as_predicted(rounds):
    def layers(workload):
        pair = rounds[workload]
        return metrics.per_layer([pair["plain"]], [pair["traced"]])

    scale = layers("scale_udp")
    for name in ("net.tcp.self_s", "runtime.planp_layer.self_s",
                 "runtime.codec.decode_self_s", "jit.engine.self_s"):
        assert scale[name] == 0
    builtin = layers("http_builtin")
    assert builtin["runtime.planp_layer.self_s"] == 0
    assert builtin["jit.engine.self_s"] == 0
    assert builtin["net.tcp.self_s"] > 0
    asp = layers("http_asp")
    assert asp["jit.engine.self_s"] > 0
    assert asp["runtime.planp_layer.batch_share"] == 0
    assert layers("asp_burst")["runtime.planp_layer.batch_share"] > 0.9
    deploy = layers("deploy_cold")
    assert deploy["analysis.rejected"] == 2 * 3
    assert deploy["net.sim.events"] == 0


def test_a_wrong_result_fails_the_gate(rounds):
    tampered = dict(rounds["asp_burst"]["plain"], digest="0" * 64)
    result = summarise("asp_burst", [tampered])
    assert not result["correct"]
    assert "digest" in result["problems"][0]


def test_tracer_restores_every_patched_attribute():
    from repro.jit import pipeline
    from repro.jit.specializer import ClosureEngine
    from repro.net import node, sim, tcp, topology
    from repro.runtime import codec, planp_layer

    from bench._child import run_round

    watched = [(node.Node, "receive"), (node.Interface, "send"),
               (sim.Simulator, "schedule"), (sim.EventHandle, "cancel"),
               (topology.Network, "run"), (topology.Network, "__init__"),
               (topology, "_compute_routes"), (codec, "encode"),
               (codec, "make_decoder"), (codec.PacketBatch, "rows"),
               (pipeline, "make_engine"), (pipeline, "parse"),
               (planp_layer.PlanPLayer, "process"),
               (ClosureEngine, "run_channel_batch")]
    before = [vars(owner)[name] for owner, name in watched]
    record = run_round("asp_burst", DEFAULT_SEED, "smoke", traced=True)
    assert record["trace"]["n_spans"] > 0
    after = [vars(owner)[name] for owner, name in watched]
    assert all(a is b for a, b in zip(after, before))
    assert "on_data" not in vars(tcp.TcpConnection)


def test_benchmark_json_lists_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]


def test_contract_run_prints_one_result_object():
    proc = bench_cli("--workload", "asp_burst", "--seed", "5", "--seconds",
                     "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in metrics.PER_LAYER}


def test_without_the_program_the_benchmark_fails_cleanly(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench_cli("--workload", "scale_udp", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
