"""The end-to-end rolling-upgrade drill (this PR's acceptance scenario).

A 16-node fleet forwards live traffic under generation 1.  An
incompatible generation 2 (packet layout changed) must be **vetoed
before the canary window opens** — no node installs it, no mixed
packet is exchanged.  A compatible generation 2 must promote
fleet-wide; and with the checker on, a compatible rollout's delivery
stream is byte-identical to the same run with the checker off.
"""

import json

from repro.experiments.upgrade import run_upgrade_experiment
from repro.harness import ResultStore, Runner, matrix
from repro.obs import Observability
from repro.runtime.lifecycle import lifecycle_summary


class TestVetoBeforeCanary:
    def setup_method(self):
        self.obs = Observability()
        self.result = run_upgrade_experiment(seed=5, n_routers=16,
                                             duration=8.0, obs=self.obs)
        self.fig = self.result.figures

    def test_incompatible_rollout_vetoed(self):
        assert self.fig["vetoed"] is True
        assert self.fig["veto_reason"].startswith("wire-incompatible")
        assert "field-layout-changed" in self.fig["veto_reason"]
        assert self.fig["vetoes"] == 1

    def test_no_canary_packet_ever_flowed(self):
        # The incompatible generation was never installed anywhere —
        # the strongest form of "no canary packet": there was no node
        # that could have emitted or decoded one.
        assert self.fig["incompat_installed_anywhere"] is False
        # And the event log agrees: the veto precedes any install of
        # the incompatible candidate (there is none at all).
        events = [e.to_dict() for e in self.obs.events.filter()]
        veto_idx = [i for i, e in enumerate(events)
                    if e.get("kind") == "rollout"
                    and e.get("action") == "veto"]
        assert len(veto_idx) == 1
        incompat_sha = self.fig["veto_reason"]  # sha12 appears in it
        installs_after = [
            e for e in events[veto_idx[0]:]
            if e.get("kind") == "deploy" and e.get("action") == "install"
            and e.get("sha", "")[:12] in incompat_sha]
        assert installs_after == []

    def test_compatible_rollout_promotes_fleet_wide(self):
        assert self.fig["promoted"] is True
        assert self.fig["on_compat_at_end"] is True
        assert self.fig["quarantined_at_end"] == 0
        assert self.fig["healthy"] is True
        assert len(self.fig["final_generations"]) == 16
        assert len(set(self.fig["final_generations"].values())) == 1

    def test_wire_verdict_recorded_per_old_generation(self):
        verdicts = self.fig["wire_verdicts"]
        assert len(verdicts) == 1
        (verdict,) = verdicts.values()
        assert verdict.startswith("incompatible")

    def test_obsdump_lifecycle_fold_counts_the_veto(self):
        events = [e.to_dict() for e in self.obs.events.filter()]
        summary = lifecycle_summary(events)
        assert summary["totals"]["vetoed"] == 1
        (veto,) = summary["vetoes"]
        assert veto["nodes"] == 16
        assert veto["verdict"].startswith("incompatible")


class TestByteIdenticalWhenCompatible:
    def test_checker_on_equals_checker_off(self):
        """The gate is free for compatible rollouts: same seed, same
        traffic, wire_check on vs off — the delivery stream (times
        and payloads, digested) is byte-identical."""
        on = run_upgrade_experiment(seed=5, n_routers=16, duration=8.0,
                                    wire_check=True,
                                    attempt_incompatible=False)
        off = run_upgrade_experiment(seed=5, n_routers=16,
                                     duration=8.0, wire_check=False,
                                     attempt_incompatible=False)
        assert on.figures["delivered"] == off.figures["delivered"] > 0
        assert (on.figures["delivery_digest"]
                == off.figures["delivery_digest"])
        assert on.figures["healthy"] and off.figures["healthy"]

    def test_checker_off_lets_the_incompatible_rollout_through(self):
        """The control run: without the gate the incompatible
        generation reaches canary nodes — proof the veto is what
        prevents mixed-generation traffic, not an accident of the
        drill."""
        result = run_upgrade_experiment(seed=5, n_routers=16,
                                        duration=8.0, wire_check=False)
        assert result.figures["vetoed"] is False
        assert result.figures["incompat_installed_anywhere"] is True


class TestDrillDeterminismAndHarness:
    def test_same_seed_same_record(self):
        a = run_upgrade_experiment(seed=5, n_routers=16, duration=8.0)
        b = run_upgrade_experiment(seed=5, n_routers=16, duration=8.0)
        assert a.record() == b.record()

    def test_upgrade_scenario_in_chaos_matrix(self, tmp_path):
        scenario = next(s for s in matrix("chaos")
                        if s.name == "chaos/upgrade-16")
        assert "chaos-smoke" in scenario.tags
        store = ResultStore(tmp_path)
        Runner(store, workers=1).sweep([scenario])
        (line,) = [json.loads(line) for line in
                   (store.root / "results.jsonl").read_text()
                   .splitlines()]
        figures = line["record"]["figures"]
        assert figures["healthy"] is True
        assert figures["vetoed"] is True
        assert figures["quarantined_at_end"] == 0
