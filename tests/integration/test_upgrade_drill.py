"""The end-to-end rolling-upgrade drill (this PR's acceptance scenario).

A 16-node fleet forwards live traffic under generation 1.  An
incompatible generation 2 (packet layout changed) must be **vetoed
before the canary window opens** — no node installs it, no mixed
packet is exchanged.  A compatible generation 2 must promote
fleet-wide; and with the checker on, a compatible rollout's delivery
stream is byte-identical to the same run with the checker off.
"""

import dataclasses
import json

from repro.experiments.chaos import _drill_fleet
from repro.experiments.upgrade import (GEN1_ASP, GEN2_COMPAT_ASP,
                                       GEN2_INCOMPAT_ASP,
                                       run_upgrade_experiment)
from repro.jit.pipeline import ProgramCache
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
        events = [e.to_dict() for e in self.obs.events.events]
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
        events = [e.to_dict() for e in self.obs.events.events]
        summary = lifecycle_summary(events)
        assert summary["totals"]["vetoed"] == 1
        (veto,) = summary["vetoes"]
        assert veto["nodes"] == 16
        assert veto["verdict"].startswith("incompatible")


def control_drill(*, wire_check: bool, incompatible: bool):
    """The drill's fleet and timeline with the lifecycle policy's gate
    set to ``wire_check``, the incompatible candidate attempted or not.
    Returns the delivery stream and the manager."""
    net, routers, dst, manager = _drill_fleet(
        seed=5, n_routers=16, obs=None, gen1=GEN1_ASP,
        gen1_name="upgrade-gen1")
    manager.policy = dataclasses.replace(manager.policy,
                                         wire_check=wire_check)
    records = []
    dst.delivery_taps.append(lambda p: records.append((net.now,
                                                       p.payload)))
    if incompatible:
        net.sim.at(2.0, lambda: manager.rollout(
            GEN2_INCOMPAT_ASP, routers,
            source_name="upgrade-gen2-incompat"))
    net.sim.at(3.0, lambda: manager.rollout(
        GEN2_COMPAT_ASP, routers, source_name="upgrade-gen2-compat"))
    net.run(until=8.0)
    return records, manager


class TestByteIdenticalWhenCompatible:
    def test_checker_on_equals_checker_off(self):
        """The gate is free for compatible rollouts: same seed, same
        traffic, wire_check on vs off — the delivery stream (times
        and payloads) is byte-identical."""
        on, on_manager = control_drill(wire_check=True,
                                       incompatible=False)
        off, off_manager = control_drill(wire_check=False,
                                         incompatible=False)
        assert len(on) > 0 and on == off
        compat = ProgramCache.digest(GEN2_COMPAT_ASP)
        for manager in (on_manager, off_manager):
            assert all(nl.current.loaded.source_sha == compat
                       for nl in manager.nodes.values())
            assert not manager.quarantined_nodes()

    def test_checker_off_lets_the_incompatible_rollout_through(self):
        """The control run: without the gate the incompatible
        generation reaches canary nodes — proof the veto is what
        prevents mixed-generation traffic, not an accident of the
        drill."""
        _records, manager = control_drill(wire_check=False,
                                          incompatible=True)
        incompat = ProgramCache.digest(GEN2_INCOMPAT_ASP)
        assert manager.vetoes == 0
        assert any(incompat in [g.loaded.source_sha for g in nl.generations
                                + nl.rolled_back]
                   for nl in manager.nodes.values())


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
