"""Campaign mechanics: seed derivation, report shape, obs counters,
and the fuzzx CLI's run subcommand."""

import json
from pathlib import Path

import pytest

from repro.fuzz import derive_seed, run_campaign

CORPUS = Path(__file__).parent / "corpus"


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "program", 0) == derive_seed(1, "program", 0)

    def test_distinct_parts(self):
        seeds = {derive_seed(1, "program", i) for i in range(100)}
        assert len(seeds) == 100

    def test_fits_random_seed(self):
        s = derive_seed(7, "stream", 3, 1)
        assert 0 <= s < 2 ** 63


class TestRunCampaign:
    def test_small_campaign_is_clean_and_counted(self, global_obs):
        obs = global_obs
        report = run_campaign(5, budget_s=0.0, min_pairs=20,
                              minimize=False)
        assert report.ok
        assert report.pairs >= 20
        assert report.programs >= 5
        assert report.streams == report.pairs
        assert obs.metrics.counter("fuzz.pairs").value == report.pairs
        assert obs.metrics.counter("fuzz.programs").value == report.programs
        assert obs.metrics.counter("fuzz.divergences").value == 0

    def test_deterministic_given_seed(self):
        a = run_campaign(21, budget_s=0.0, min_pairs=12,
                         minimize=False)
        b = run_campaign(21, budget_s=0.0, min_pairs=12,
                         minimize=False)
        assert a.to_dict()["pairs"] == b.to_dict()["pairs"]
        assert a.findings == b.findings == []

    def test_max_pairs_caps_work(self):
        report = run_campaign(3, budget_s=60.0, min_pairs=200,
                              max_pairs=8, minimize=False)
        assert report.pairs == 8

    def test_report_dict_shape(self):
        report = run_campaign(9, budget_s=0.0, min_pairs=4,
                              minimize=False)
        doc = report.to_dict()
        assert set(doc) == {"seed", "elapsed_s", "programs", "streams",
                            "pairs", "divergences", "minimizer_steps",
                            "ok", "findings"}


class TestFuzzxCli:
    def test_run_reports_and_exits_zero(self, tmp_path, capsys):
        from repro.tools.fuzzx import main
        out = tmp_path / "report.json"
        code = main(["run", "--budget", "0", "--min-pairs", "8",
                     "--seed", "2", "--json", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] and doc["pairs"] >= 8
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["pairs"] == doc["pairs"]

    @pytest.mark.parametrize("flag", ["--streams-per-program",
                                      "--stream-len", "--batch-size",
                                      "--min-pairs", "--max-pairs"])
    def test_run_rejects_a_count_below_one(self, flag, capsys):
        # --streams-per-program 0 with a pair floor never ended: no
        # step adds a pair
        from repro.tools.fuzzx import main
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--budget", "1", "--min-pairs", "5", flag, "0"])
        assert exit_.value.code == 2
        assert flag in capsys.readouterr().err

    def test_run_rejects_unknown_backend(self):
        from repro.tools.fuzzx import main
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--backends", "quantum"])
        assert exit_.value.code == 2

    @pytest.mark.parametrize("command", ["run", "replay"])
    @pytest.mark.parametrize("backends", [",", "", "bogus",
                                          "source,bogus", "source",
                                          "interpreter",
                                          "source,source"])
    def test_unusable_backend_subset_is_a_usage_error(self, command,
                                                      backends, capsys):
        """Exit 1 means "divergence found": a subset naming no backend,
        an unknown one, or leaving the oracle nothing to compare with
        its reference is a usage error instead."""
        from repro.tools.fuzzx import main
        args = (["run", "--budget", "0", "--min-pairs", "1"]
                if command == "run" else ["replay", str(CORPUS)])
        with pytest.raises(SystemExit) as exit_:
            main(args + ["--backends", backends])
        assert exit_.value.code == 2
        assert "--backends" in capsys.readouterr().err

    @pytest.mark.parametrize("backends", ["closure", "interpreter,source"])
    def test_a_subset_with_two_traces_runs(self, backends, capsys):
        from repro.tools.fuzzx import main
        assert main(["run", "--budget", "0", "--min-pairs", "2",
                     "--streams-per-program", "1",
                     "--backends", backends]) == 0
        assert json.loads(capsys.readouterr().out)["pairs"] == 2
