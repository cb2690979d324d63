"""The case-file protocol, the minimizer, and the acceptance drill:
an injected engine discrepancy must be caught by a campaign, shrunk by
the minimizer, and replayable from the emitted case file."""

import json

import pytest

from repro.fuzz import (case_specs, load_case, make_case, minimize_case,
                        run_campaign, run_case, save_case)
from repro.fuzz.streams import PacketSpec

FORWARD = """\
channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
"""


class TestCaseFiles:
    def test_save_load_roundtrip(self, tmp_path):
        specs = [PacketSpec(payload=b"\x01\x02"), PacketSpec(syn=True)]
        case = make_case(FORWARD, specs, seed=9, note="demo")
        path = save_case(case, tmp_path / "sub" / "case.json")
        again = load_case(path)
        assert again == case
        assert case_specs(again) == specs

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError):
            load_case(path)

    def test_run_case_on_healthy_program(self):
        case = make_case(FORWARD, [PacketSpec(payload=b"ok")] * 3)
        assert run_case(case).ok

    def test_minimize_keeps_passing_case_intact(self):
        """A case that does not fail must come back unchanged — a flaky
        finding must not be 'minimized' into noise."""
        case = make_case(FORWARD, [PacketSpec(payload=b"ok")] * 4)
        minimized, steps = minimize_case(case)
        assert minimized == case
        assert steps == 1  # the single verification run


class _OffByOne:
    """A deliberately wrong engine wrapper: ps drifts by one whenever a
    run commits an int protocol state."""

    def __init__(self, engine):
        self._engine = engine

    def initial_channel_state(self, decl, ctx):
        return self._engine.initial_channel_state(decl, ctx)

    def run_channel(self, decl, ps, ss, value, ctx):
        ps, ss = self._engine.run_channel(decl, ps, ss, value, ctx)
        if type(ps) is int:
            ps += 1
        return ps, ss


@pytest.fixture
def broken_closure_engine(monkeypatch):
    """Patch the oracle's engine factory so the closure backend is
    subtly wrong; the other backends stay honest."""
    from repro.fuzz import oracle as oracle_mod
    real = oracle_mod.make_engine

    def make_engine(info, backend, ctx):
        engine = real(info, backend, ctx)
        return _OffByOne(engine) if backend == "closure" else engine

    monkeypatch.setattr(oracle_mod, "make_engine", make_engine)
    return monkeypatch


class TestAcceptance:
    def test_injected_discrepancy_caught_minimized_replayable(
            self, tmp_path, broken_closure_engine, global_obs):
        obs = global_obs
        # A generous time budget with a hard pair cap: the loop only
        # stops early once a finding exists, so the campaign keeps
        # searching past healthy programs until the bug bites.
        report = run_campaign(1234, budget_s=600.0, min_pairs=1,
                              max_pairs=60, streams_per_program=2,
                              out_dir=tmp_path)
        # Caught:
        assert not report.ok
        assert report.findings
        finding = report.findings[0]
        assert "ps" in finding.detail or "outcomes" in finding.detail
        assert obs.metrics.counter("fuzz.divergences").value > 0
        # Minimized:
        assert report.minimizer_steps > 0
        case = load_case(finding.case_path)
        assert len(case["packets"]) <= 2, (
            "an every-packet off-by-one should shrink to 1-2 packets")
        assert "minimized" in case["note"]
        # Replayable while the bug exists:
        result = run_case(case)
        assert not result.ok
        assert any(d.backend == "closure" for d in result.divergences)
        # ...and the same file passes once the bug is gone (the
        # committed-corpus contract):
        broken_closure_engine.undo()
        assert run_case(case).ok

    def test_replay_cli_detects_divergence(self, tmp_path,
                                           broken_closure_engine,
                                           capsys):
        from repro.tools.fuzzx import main
        case = make_case(FORWARD, [PacketSpec(payload=b"x")] * 2)
        path = save_case(case, tmp_path / "case.json")
        assert main(["replay", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out
        broken_closure_engine.undo()
        assert main(["replay", str(path)]) == 0
        assert "ok" in capsys.readouterr().out
