"""The differential oracle: trace capture, containment mirroring, and
divergence detection (including uncontained-crash reporting)."""

import random

import pytest

from repro.fuzz import compare_all, gen_stream, run_trace
from repro.fuzz.grammar import gen_program
from repro.fuzz.oracle import (DEFAULT_BACKENDS, MODES, _Runner, canon,
                               trace_matrix)
from repro.fuzz.streams import PacketSpec
from repro.interp.values import UNIT, PlanPList, PlanPTable
from repro.lang import parse, typecheck

FORWARD = """\
channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
"""

TWO_INTS = """\
channel network(ps : int, ss : unit, p : ip*tcp*int*int) is
  ((ps + (#3 p)) / (#4 p), ss)
"""


def _info(source):
    return typecheck(parse(source))


class TestCanon:
    def test_bool_is_not_int(self):
        assert canon(True) != canon(1)

    def test_tables_compare_structurally(self):
        a, b = PlanPTable(4), PlanPTable(4)
        a.put(1, "x")
        b.put(1, "x")
        assert a != b  # identity semantics in the language...
        assert canon(a) == canon(b)  # ...structural in the oracle

    def test_insertion_order_matters(self):
        a, b = PlanPTable(4), PlanPTable(4)
        a.put(1, "x")
        a.put(2, "y")
        b.put(2, "y")
        b.put(1, "x")
        assert canon(a) != canon(b)

    def test_lists_and_unit(self):
        assert canon(PlanPList((1, 2))) == ("list", (1, 2))
        assert canon(UNIT) == canon(UNIT)


class TestTraces:
    def test_ok_outcomes_and_state(self):
        specs = [PacketSpec(payload=b"hi")] * 3
        trace = run_trace(_info(FORWARD), "interpreter", "serial", specs)
        assert trace.outcomes == ("ok", "ok", "ok")
        assert trace.ps == 3
        assert len(trace.emissions) == 3
        assert trace.crash is None

    def test_truncated_packet_not_dispatched(self):
        # 7 bytes cannot satisfy the 8-byte fixed layout: admission
        # (the layer's front door) rejects it before decode runs.
        specs = [PacketSpec(payload=b"\x00" * 7)]
        trace = run_trace(_info(TWO_INTS), "interpreter", "serial", specs)
        assert trace.outcomes == ("pass",)

    def test_runtime_containment_commits_nothing(self):
        good = (1).to_bytes(4, "big") + (1).to_bytes(4, "big")
        bad = (1).to_bytes(4, "big") + (0).to_bytes(4, "big")
        trace = run_trace(_info(TWO_INTS), "interpreter", "serial",
                          [PacketSpec(payload=good),
                           PacketSpec(payload=bad),
                           PacketSpec(payload=good)])
        assert trace.outcomes == ("ok", "err:DivideByZero", "ok")
        assert trace.ps == 2  # (0+1)/1 then (1+1)/1... = 2

    def test_unmatched_packets_pass_through(self):
        specs = [PacketSpec(transport="udp", payload=b"x")]
        trace = run_trace(_info(FORWARD), "interpreter", "serial", specs)
        assert trace.outcomes == ("pass",)

    def test_batch_equals_serial_on_uniform_run(self):
        specs = [PacketSpec(payload=b"hello")] * 6
        info = _info(FORWARD)
        serial = run_trace(info, "closure", "serial", specs)
        batch = run_trace(info, "closure", "batch", specs)
        assert serial.diff(batch) is None

    def test_install_time_raise_is_contained(self):
        # Every engine evaluates top-level vals when it is built; a
        # raising initializer must become an install outcome, not an
        # exception out of the oracle.
        source = "val k0 : int = 1 / 0\n" + FORWARD
        for backend in DEFAULT_BACKENDS:
            runner = _Runner(_info(source), backend)
            assert runner.outcomes == ["install:DivideByZero"], backend
            assert runner.crash is None


class TestCompareAll:
    def test_engines_agree_on_forwarding(self):
        specs = [PacketSpec(payload=b"abc")] * 5
        result = compare_all(_info(FORWARD), specs)
        assert result.ok

    def test_engines_agree_on_generated_pairs(self):
        for seed in range(8):
            info = _info(gen_program(random.Random(seed)))
            specs = gen_stream(random.Random(seed), info, length=10)
            result = compare_all(info, specs)
            assert result.ok, result.divergences

    def test_uncontained_crash_is_reported(self, monkeypatch):
        """Even a unanimous leak (every engine crashes identically)
        must surface as a divergence — unanimity is not containment."""
        from repro.fuzz import oracle as oracle_mod
        real = oracle_mod.make_engine

        class Leaky:
            def __init__(self, engine):
                self._engine = engine

            def initial_channel_state(self, decl, ctx):
                return self._engine.initial_channel_state(decl, ctx)

            def run_channel(self, decl, ps, ss, value, ctx):
                raise RuntimeError("boom")

        monkeypatch.setattr(oracle_mod, "make_engine",
                            lambda info, backend, ctx:
                            Leaky(real(info, backend, ctx)))
        result = compare_all(_info(FORWARD),
                             [PacketSpec(payload=b"x")])
        assert not result.ok
        assert any("crash" in d.detail or "leak" in d.detail
                   for d in result.divergences)

    def test_modes_constant(self):
        assert MODES == ("serial", "batch")

    def test_batch_mode_runs_only_on_the_fold(self):
        """Four traces: every engine serial, and the one engine with a
        batch fold batched too."""
        assert trace_matrix(DEFAULT_BACKENDS) == [
            ("interpreter", "serial"), ("closure", "serial"),
            ("closure", "batch"), ("source", "serial")]
        assert trace_matrix(("closure",)) == [("closure", "serial"),
                                              ("closure", "batch")]

    @pytest.mark.parametrize("backends", [(), ("source",),
                                          ("interpreter",),
                                          ("source", "source")])
    def test_a_subset_with_nothing_to_compare_is_refused(self, backends):
        with pytest.raises(ValueError, match="no trace to compare"):
            compare_all(_info(FORWARD), [PacketSpec(payload=b"x")],
                        backends=backends)
