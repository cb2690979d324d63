"""The ``obsdump`` CLI: one registry path for every scenario, the
registered views, and the ``--json`` artifact shapes CI uploads."""

import json

import pytest

from repro.harness import matrix
from repro.tools import obsdump

#: one small scenario per registered experiment that has a matrix cell
SCENARIOS = {
    "audio": "smoke/audio",
    "audio_gap_sweep": "smoke/gap-sweep",
    "http": "smoke/http-asp",
    "mpeg": "smoke/mpeg",
    "images": "smoke/images",
    "scale": "smoke/scale",
    "chaos": "chaos/drill-4",
    "upgrade": "chaos/upgrade-16",
    "web": "web/syn-shed",
}


def split_stdout(out):
    """The leading JSON document, then the event log's JSON lines."""
    doc, end = json.JSONDecoder().raw_decode(out)
    return doc, [json.loads(line)
                 for line in out[end:].splitlines() if line]


def dump_json(tmp_path, *argv):
    path = tmp_path / "dump.json"
    assert obsdump.main([*argv, "--json", str(path)]) == 0
    return json.loads(path.read_text())


class TestMetricsOnStdout:
    def test_every_experiment_with_a_scenario_is_covered(self):
        assert {s.experiment for s in matrix("all")} == set(SCENARIOS)

    @pytest.mark.parametrize("name", ["demo", *SCENARIOS.values()])
    def test_dumps_sorted_json_metrics(self, name, capsys):
        assert obsdump.main([name]) == 0
        metrics, events = split_stdout(capsys.readouterr().out)
        assert isinstance(metrics, dict)
        assert list(metrics) == sorted(metrics)
        if name == "demo":  # the one mode that prints events unasked
            assert {e["kind"] for e in events} \
                == {"deploy", "drop", "fault"}
        else:
            assert events == []

    def test_unknown_scenario_and_unknown_view_exit_2(self, capsys):
        assert obsdump.main(["no/such-scenario"]) == 2
        assert obsdump.main(["smoke/audio", "--view", "overload"]) == 2
        assert "registered: []" in capsys.readouterr().err


class TestEventLog:
    """Every experiment that takes ``obs`` is handed the scope, so its
    events print (the old per-app modes could never print one)."""

    def test_app_scenario_prints_its_events(self, capsys):
        assert obsdump.main(["smoke/http-asp", "--events"]) == 0
        _, events = split_stdout(capsys.readouterr().out)
        assert any(e["kind"] == "deploy" and e["node"] == "gateway"
                   for e in events)

    def test_events_limit_bounds_stdout_and_the_artifact(
            self, tmp_path, capsys):
        assert obsdump.main(["demo", "--events-limit", "2"]) == 0
        captured = capsys.readouterr()
        assert len(split_stdout(captured.out)[1]) == 2
        assert "more events" in captured.err
        doc = dump_json(tmp_path, "demo", "--events-limit", "2")
        assert len(doc["events"]) == 2

    def test_negative_events_limit_is_a_usage_error(self, capsys):
        # ``events[:-3]`` would silently drop the three newest events
        with pytest.raises(SystemExit) as exit_:
            obsdump.main(["demo", "--events-limit", "-3"])
        assert exit_.value.code == 2
        assert "--events-limit" in capsys.readouterr().err


class TestArtifacts:
    """The ``--json`` shapes CI uploads."""

    def test_upgrade_lifecycle_records_the_veto(self, tmp_path):
        doc = dump_json(tmp_path, "chaos/upgrade-16")
        assert doc["scenario"] == "chaos/upgrade-16"
        assert doc["lifecycle"]["totals"]["vetoed"] == 1
        assert doc["lifecycle"]["vetoes"][0]["verdict"] \
            .startswith("incompatible")

    def test_web_overload_fold_and_gateway_drops(self, tmp_path):
        doc = dump_json(tmp_path, "web/syn-shed")
        assert set(doc["overload"]["totals"]) \
            == {"shed", "expired", "trips", "rollbacks"}
        assert doc["metrics"]["overload.gateway_dropped"] > 0
