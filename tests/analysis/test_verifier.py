"""Verifier integration: the shipped ASPs pass, adversaries fail."""

import copy

import pytest

from repro.analysis import (check_duplication, check_global_termination,
                            program_paths, verify_report)
from repro.analysis.paths import PathWalker
from repro.asps import (audio_client_asp, audio_router_asp,
                        http_gateway_asp, mpeg_client_asp,
                        mpeg_monitor_asp)
from repro.jit.pipeline import ProgramCache, load_program
from repro.lang import VerificationError, parse, typecheck
from tests.corpora import REJECTED, SHIPPED, corpus_programs

ALL_ASPS = {
    "audio-router": audio_router_asp(),
    "audio-client": audio_client_asp(),
    "http-gateway-2": http_gateway_asp("10.0.1.2",
                                       ["10.0.2.2", "10.0.3.2"]),
    "http-gateway-3": http_gateway_asp(
        "10.0.1.2", ["10.0.2.2", "10.0.3.2", "10.0.4.2"]),
    "http-gateway-srchash": http_gateway_asp(
        "10.0.1.2", ["10.0.2.2", "10.0.3.2"], strategy="srchash"),
    "mpeg-monitor": mpeg_monitor_asp(),
    "mpeg-client": mpeg_client_asp(),
}


def check(source: str):
    return typecheck(parse(source))


def gate(source: str):
    """The install-time gate (``ProgramCache.check_verified``) on a cache
    of its own: the passing report, or :class:`VerificationError` on the
    first failed analysis."""
    cache = ProgramCache()
    return cache.check_verified(*cache.frontend(source))


@pytest.mark.parametrize("name", sorted(ALL_ASPS))
def test_shipped_asp_verifies(name):
    report = gate(ALL_ASPS[name])
    assert report.global_termination is not None
    assert report.delivery is not None
    assert report.duplication is not None


@pytest.mark.parametrize("name", sorted(ALL_ASPS))
def test_report_mode_all_pass(name):
    report = verify_report(check(ALL_ASPS[name]))
    assert report.passed, report.summary()
    assert len(report.results) == 4


def test_report_mode_collects_failures():
    bad = ("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
           "(OnRemote(network, p); OnRemote(network, p); (ps, ss))")
    report = verify_report(check(bad))
    assert not report.passed
    failed = {r.name for r in report.failures}
    assert "duplication" in failed
    assert "FAIL duplication" in report.summary()

    # The gate raises instead, naming the first analysis that failed.
    with pytest.raises(VerificationError,
                       match="rejected by duplication") as err:
        gate(bad)
    assert err.value.analysis == "duplication"


def test_multicast_style_program_needs_privilege():
    """The paper notes multicast can't be proven duplication-safe: it
    must be deployed with verification off (authenticated users)."""
    multicast = """
channel fanout(ps : unit, ss : unit, p : ip*udp*blob) is
  (OnRemote(fanout, p); OnRemote(fanout, p); (ps, ss))
"""
    report = verify_report(check(multicast))
    assert not report.passed

    from repro.jit import load_program

    loaded = load_program(multicast, verify=False)  # privileged path
    assert loaded.engine is not None


def test_analysis_timings_recorded():
    report = verify_report(check(ALL_ASPS["mpeg-monitor"]))
    assert all(r.elapsed_ms >= 0 for r in report.results)
    assert [r.name for r in report.results] == [
        "local-termination", "global-termination", "delivery",
        "duplication"]


# -- one path enumeration per verification ---------------------------------------

PROGRAMS = {**SHIPPED, **corpus_programs()}

#: 2^16 paths through one body: more than PATH_BUDGET allows.
PATH_BOMB = (
    "channel network(ps : int, ss : unit, p : ip*udp*blob) is (\n"
    + "".join(f'  (if ps = {i} then print("a") else print("b"));\n'
              for i in range(16))
    + "  OnRemote(network, p); (ps, ss))")


@pytest.fixture
def walks(monkeypatch):
    """The channel declarations ``PathWalker.paths`` enumerates, in
    order, while the test runs."""
    seen = []
    paths = PathWalker.paths

    def counted(self):
        seen.append(self._decl)
        return paths(self)

    monkeypatch.setattr(PathWalker, "paths", counted)
    return seen


def _unshared(analysis, info):
    try:
        return True, analysis(info)
    except VerificationError as err:
        return False, err.message


class TestOneEnumeration:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_each_channel_is_walked_exactly_once(self, name, walks):
        info = check(PROGRAMS[name])
        verify_report(info)
        assert sorted(map(id, walks)) == sorted(
            id(decl) for decl in info.all_channels())

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_reports_equal_the_unshared_analyses(self, name):
        info = check(PROGRAMS[name])
        report = verify_report(info)
        by_name = {r.name: r for r in report.results}
        for analysis, attr, fn in (
                ("global-termination", "global_termination",
                 check_global_termination),
                ("duplication", "duplication", check_duplication)):
            passed, value = _unshared(fn, info)
            assert by_name[analysis].passed is passed
            if passed:
                assert by_name[analysis].detail == ""
                assert getattr(report, attr) == value
            else:
                assert by_name[analysis].detail == value
                assert getattr(report, attr) is None
        if report.passed:
            strict = gate(PROGRAMS[name])
            assert strict.global_termination == report.global_termination
            assert strict.duplication == report.duplication

    def test_shipped_verdicts(self):
        for name, source in SHIPPED.items():
            failed = [r.name for r in verify_report(check(source)).failures]
            assert failed == (["delivery"] if name in REJECTED else []), name

    def test_consumers_do_not_mutate_the_shared_paths(self):
        for source in PROGRAMS.values():
            info = check(source)
            paths = program_paths(info)
            snapshot = copy.deepcopy(paths)
            for analysis in (check_global_termination, check_duplication):
                try:
                    analysis(info, paths)
                except VerificationError:
                    pass
            assert paths == snapshot
            assert list(paths) == list(snapshot)

    def test_refused_enumeration_fails_both_consumers_alike(self, walks):
        report = verify_report(check(PATH_BOMB))
        by_name = {r.name: r for r in report.results}
        for analysis in ("global-termination", "duplication"):
            assert not by_name[analysis].passed
            assert "budget exceeded" in by_name[analysis].detail
        assert (by_name["global-termination"].detail
                == by_name["duplication"].detail)
        with pytest.raises(
                VerificationError,
                match="rejected by global-termination.*budget exceeded"):
            gate(PATH_BOMB)

    def test_two_programs_never_share_summaries(self, walks):
        """Sharing is scoped to one ``verify_report`` call: the same text
        checked twice is two ``ProgramInfo``s and two enumerations."""
        source = PROGRAMS["http_gateway_asp"]
        first, second = check(source), check(source)
        verify_report(first)
        verify_report(second)
        verify_report(first)
        channels = len(first.all_channels())
        assert len(walks) == 3 * channels
        assert {id(d) for d in walks} == {
            id(d) for info in (first, second) for d in info.all_channels()}

    def test_cold_cache_still_runs_every_stage_once(self, walks):
        for name in ("http_gateway_asp", "mpeg_monitor_asp"):
            del walks[:]
            cache = ProgramCache()
            loaded = load_program(PROGRAMS[name], cache=cache)
            assert cache.stats.frontend_misses == 1
            assert cache.stats.verify_misses == 1
            assert cache.stats.total_hits == 0
            assert len(walks) == len(loaded.info.all_channels())
