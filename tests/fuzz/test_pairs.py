"""Paired-program validation of the wire-compatibility checker.

Three things must hold, or the rollout gate's veto is theater:

* the signature mutator produces real, well-typed program pairs;
* the exchange oracle witnesses exactly the divergences a mixed
  fleet would see at the dispatch boundary;
* the campaign catches a *weakened* checker (injected via
  ``checker=``) — proving a clean run is not vacuous — while the real
  checker sustains zero false accepts.
"""

import json
import random
from pathlib import Path

import pytest

from repro.analysis.wire import (CompatReport, check_compatible,
                                 wire_summary)
from repro.fuzz import (derive_seed, exchange_divergences, gen_pair,
                        load_wire_case, minimize_wire_case,
                        mutate_overloads, run_pair_campaign,
                        run_wire_case)
from repro.fuzz.grammar import PACKET_TYPES
from repro.fuzz.pairs import pair_specs
from repro.lang import parse, typecheck

WIRE_CORPUS = Path(__file__).parent / "corpus" / "wire"

FWD = ("channel network(ps : int, ss : unit, p : {pt}) is "
       "(OnRemote(network, p); (ps + 1, ss))")


def info_of(source: str):
    return typecheck(parse(source))


class TestMutateOverloads:
    def test_mutations_stay_well_typed(self):
        from repro.fuzz import gen_program
        for i in range(40):
            rng = random.Random(derive_seed(3, "mut", i))
            base = rng.sample(PACKET_TYPES, rng.randint(1, 3))
            mutated, desc = mutate_overloads(rng, base)
            assert len(set(mutated)) == len(mutated), desc
            source = gen_program(random.Random(1), overloads=mutated)
            info_of(source)  # must not raise

    def test_identity_possible_and_labeled(self):
        seen = set()
        for i in range(80):
            rng = random.Random(derive_seed(5, "mut", i))
            base = rng.sample(PACKET_TYPES, 2)
            mutated, desc = mutate_overloads(rng, base)
            seen.add(desc.split(" ")[0])
            if desc == "identity":
                assert mutated == base
        # all mutation families get exercised across seeds
        assert {"identity", "retype", "overload-add",
                "overload-drop"} <= seen

    def test_input_list_not_mutated_in_place(self):
        base = list(PACKET_TYPES[:3])
        snapshot = list(base)
        mutate_overloads(random.Random(0), base)
        assert base == snapshot


class TestGenPair:
    def test_pair_sources_typecheck(self):
        for i in range(20):
            rng = random.Random(derive_seed(9, "pair", i))
            source_a, source_b, mutation = gen_pair(rng)
            info_of(source_a)
            info_of(source_b)
            assert mutation

    def test_deterministic(self):
        a = gen_pair(random.Random(77))
        b = gen_pair(random.Random(77))
        assert a == b


class TestExchangeOracle:
    def test_identical_generations_never_diverge(self):
        src = FWD.format(pt="ip*udp*int*blob")
        info = info_of(src)
        ws = wire_summary(info)
        rng = random.Random(4)
        specs = pair_specs(rng, info, info, ws.emitted_to())
        assert specs
        assert exchange_divergences(info, info, specs) == []

    def test_field_retype_witnessed(self):
        info_a = info_of(FWD.format(pt="ip*udp*int*blob"))
        info_b = info_of(FWD.format(pt="ip*udp*host*blob"))
        specs = pair_specs(random.Random(4), info_a, info_b,
                           {"network"})
        assert exchange_divergences(info_a, info_b, specs)

    def test_tail_toggle_witnessed_at_boundary(self):
        info_a = info_of(FWD.format(pt="ip*tcp*int*int"))
        info_b = info_of(FWD.format(pt="ip*tcp*int*int*blob"))
        specs = pair_specs(random.Random(4), info_a, info_b,
                           {"network"})
        divs = exchange_divergences(info_a, info_b, specs)
        assert divs  # the +1-byte probe flips dispatch on one side

    def test_dead_tagged_channel_not_probed(self):
        base = FWD.format(pt="ip*udp*blob")
        dead = base + ("\nchannel probe(ps : int, ss : unit, "
                       "p : ip*udp*int*blob) is (ps, ss)")
        info_a, info_b = info_of(base), info_of(dead)
        live = (wire_summary(info_a).emitted_to()
                | wire_summary(info_b).emitted_to())
        specs = pair_specs(random.Random(4), info_a, info_b, live)
        assert all(s.channel is None for s in specs)
        assert exchange_divergences(info_a, info_b, specs) == []


class TestPairCampaign:
    def test_real_checker_sustains_zero_false_accepts(self, global_obs):
        obs = global_obs
        report = run_pair_campaign(5, budget_s=0.0, min_pairs=40)
        assert report.ok
        assert report.false_accepts == 0
        assert report.pairs >= 40
        assert report.divergent > 0  # mutations really do diverge
        assert report.incompatible > 0 and report.compatible > 0
        counters = obs.metrics
        assert counters.counter("fuzz.wire_pairs").value == report.pairs
        assert counters.counter("fuzz.false_accepts").value == 0

    def test_weakened_checker_is_caught(self, tmp_path, global_obs):
        """The non-vacuity drill: a checker that accepts everything
        must produce findings, minimized and saved as wire cases."""
        def blind(old, new):
            return CompatReport()

        report = run_pair_campaign(5, budget_s=0.0, min_pairs=40,
                                   checker=blind, out_dir=tmp_path)
        assert not report.ok
        assert report.false_accepts > 0
        assert report.findings
        errors = [e for e in global_obs.events.events if e.kind == "error"]
        assert any(e.data.get("reason") == "false-accept"
                   for e in errors)
        for finding in report.findings:
            assert finding.case_path is not None
            case = load_wire_case(finding.case_path)
            # Replayed under the *real* checker the case is healthy:
            # still divergent, and flagged.
            verdict, divergences = run_wire_case(case)
            assert divergences
            assert not verdict.ok

    def test_partially_weakened_checker_is_caught(self):
        """A subtler break: a checker blind to tail-ness only."""
        def no_tail_check(old, new):
            report = check_compatible(old, new)
            report.reasons = [r for r in report.reasons
                              if r.kind != "tail-changed"]
            from repro.analysis.wire import Verdict
            report.verdict = (max(r.severity for r in report.reasons)
                              if report.reasons else Verdict.COMPATIBLE)
            return report

        report = run_pair_campaign(5, budget_s=0.0, min_pairs=300,
                                   max_pairs=300, minimize=False,
                                   checker=no_tail_check)
        assert report.false_accepts > 0
        assert any("tail" in f.detail or "->" in f.mutation
                   for f in report.findings)

    def test_deterministic_given_seed(self):
        a = run_pair_campaign(21, budget_s=0.0, min_pairs=15,
                              minimize=False)
        b = run_pair_campaign(21, budget_s=0.0, min_pairs=15,
                              minimize=False)
        da, db = a.to_dict(), b.to_dict()
        da.pop("elapsed_s"), db.pop("elapsed_s")
        assert da == db

    def test_report_dict_shape(self):
        report = run_pair_campaign(9, budget_s=0.0, min_pairs=4,
                                   minimize=False)
        doc = report.to_dict()
        assert set(doc) == {"seed", "elapsed_s", "pairs", "compatible",
                            "degraded", "incompatible", "divergent",
                            "false_accepts", "conservative_rejects",
                            "minimizer_steps", "ok", "findings"}


class TestWireCorpus:
    CASES = sorted(WIRE_CORPUS.glob("*.json"))

    def test_wire_corpus_is_not_empty(self):
        assert self.CASES, f"no committed wire cases under {WIRE_CORPUS}"

    @pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
    def test_case_still_divergent_and_flagged(self, path):
        case = load_wire_case(path)
        assert case["program_a"].strip() and case["program_b"].strip()
        report, divergences = run_wire_case(case)
        assert divergences, f"{path.name}: witness went stale"
        assert not report.ok, (
            f"{path.name}: checker no longer flags this divergence — "
            f"a wire-compat false accept regressed")

    def test_minimizer_preserves_divergence(self):
        case = load_wire_case(self.CASES[0])
        minimized, steps = minimize_wire_case(case)
        assert steps >= 1
        _, divergences = run_wire_case(minimized)
        assert divergences
        assert len(minimized["packets"]) <= len(case["packets"])


class TestFuzzxPairsCli:
    def test_pairs_reports_and_exits_zero(self, tmp_path, capsys):
        from repro.tools.fuzzx import main
        out = tmp_path / "report.json"
        code = main(["pairs", "--budget", "0", "--min-pairs", "8",
                     "--seed", "2", "--json", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] and doc["pairs"] >= 8
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["pairs"] == doc["pairs"]

    def test_replay_dispatches_on_wire_kind(self, capsys):
        from repro.tools.fuzzx import main
        case = sorted(WIRE_CORPUS.glob("*.json"))[0]
        code = main(["replay", str(case)])
        assert code == 0
        assert "ok" in capsys.readouterr().out
