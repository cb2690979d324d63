"""Tests for the experiment harness helpers themselves."""

import pytest

from repro.experiments import (BRIDGE_ASP, fig3_codegen_table,
                               format_fig3_table, make_bridge_packets,
                               run_engine_microbench)
from repro.experiments.fig3 import PAPER_PROGRAMS
from repro.jit.pipeline import count_source_lines


class TestFig3Harness:
    def test_table_has_all_five_programs(self):
        rows = fig3_codegen_table(repeats=2)
        assert len(rows) == 5
        names = {r.name for r in rows}
        assert "MPEG (monitor)" in names

    def test_rows_carry_paper_numbers(self):
        rows = fig3_codegen_table(repeats=1)
        by_name = {r.name: r for r in rows}
        assert by_name["Extensible Web Server"].paper_lines == 91
        assert by_name["Extensible Web Server"].paper_codegen_ms == 15.3
        # ours keep the table's order of size: monitor above client
        assert by_name["MPEG (monitor)"].lines \
            > by_name["MPEG (client)"].lines

    def test_line_counts_match_sources(self):
        rows = fig3_codegen_table(repeats=1)
        for row in rows:
            source = PAPER_PROGRAMS[row.name][0]
            assert row.lines == count_source_lines(source)

    def test_format_produces_one_line_per_program(self):
        rows = fig3_codegen_table(repeats=1)
        text = format_fig3_table(rows)
        assert len(text.splitlines()) == 2 + len(rows)

    def test_count_source_lines_skips_comments_and_blanks(self):
        assert count_source_lines("-- c\n\nval x : int = 1\n") == 1


class TestMicrobenchHarness:
    def test_packets_cycle_flows(self):
        packets = make_bridge_packets(n_flows=4)
        assert len(packets) == 4
        assert len({p[0].src for p in packets}) == 4

    @pytest.mark.parametrize("engine", ["interpreter", "closure",
                                        "source", "builtin"])
    def test_all_engines_run(self, engine):
        result = run_engine_microbench(engine=engine, n_packets=500)
        assert result.params["packets"] == 500
        assert result.us_per_packet > 0
        assert result.packets_per_second > 0

    def test_seed_accepted_for_harness_uniformity(self):
        result = run_engine_microbench(engine="builtin", n_packets=100,
                                       seed=5)
        assert result.params["packets"] == 100

    def test_bridge_asp_verifies(self):
        from repro.analysis import verify_report
        from repro.lang import parse, typecheck

        report = verify_report(typecheck(parse(BRIDGE_ASP)))
        assert report.passed

    def test_builtin_and_asp_account_identically(self):
        """The 'C' baseline really computes the same function."""
        from repro.experiments.microbench import (_NullContext,
                                                  builtin_bridge)
        from repro.interp import Interpreter
        from repro.interp.values import PlanPTable
        from repro.lang import parse, typecheck

        packets = make_bridge_packets(n_flows=3)
        info = typecheck(parse(BRIDGE_ASP))
        interp = Interpreter(info)
        ctx = _NullContext()
        decl = info.channels["network"][0]
        ps_asp, ss = 0, interp.initial_channel_state(decl, ctx)
        table = PlanPTable(1024)
        ps_builtin = 0
        for i in range(30):
            packet = packets[i % 3]
            ps_asp, ss = interp.run_channel(decl, ps_asp, ss, packet,
                                            ctx)
            ps_builtin = builtin_bridge(ctx, table, ps_builtin, packet)
        assert ps_asp == ps_builtin == 30
        for key, count in table._entries.items():
            assert ss.get(key) == count


class TestReportGenerator:
    def test_quick_report_contains_all_sections(self):
        from repro.experiments.report import QUICK, generate

        text = generate(QUICK, only=["fig3", "microbench"])
        assert "Figure 3" in text
        assert "engine microbenchmark" in text
        assert "| program |" in text

    def test_main_only_flag(self, capsys, tmp_path):
        from repro.experiments.report import main

        assert main(["--quick", "--only", "fig3",
                     "--results", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "Figure 8" not in out

    def test_mpeg_section_formats_stored_results(self):
        from repro.experiments.report import QUICK, section_mpeg
        from repro.harness import Runner, report_matrix

        runner = Runner()
        results = {s.name: runner.run(s) for s in report_matrix(QUICK)
                   if s.name.startswith("quick/mpeg/")}
        text = section_mpeg(results, QUICK)
        assert "server sessions" in text

    def test_no_run_fails_without_store(self, tmp_path):
        from repro.experiments.report import QUICK, generate
        from repro.harness import ResultStore

        with pytest.raises(RuntimeError, match="no stored records"):
            generate(QUICK, only=["fig6"],
                     store=ResultStore(tmp_path), run_missing=False)

    def test_no_run_reads_same_content_under_other_name(self, tmp_path):
        """--no-run resolves by content: a record swept under another
        matrix's name satisfies the report scenario with equal params."""
        from repro.experiments.report import QUICK, generate
        from repro.harness import (ResultStore, Runner, Scenario,
                                   report_matrix)

        fig3 = next(s for s in report_matrix(QUICK)
                    if s.name == "quick/fig3")
        store = ResultStore(tmp_path)
        Runner(store).run(Scenario("elsewhere/fig3", fig3.experiment,
                                   fig3.params, seed=fig3.seed))
        text = generate(QUICK, only=["fig3"], store=store,
                        run_missing=False)
        assert "Figure 3" in text
