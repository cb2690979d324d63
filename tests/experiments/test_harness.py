"""Tests for the experiment harness helpers themselves."""

import pytest

from repro.experiments import (BRIDGE_ASP, fig3_codegen_table,
                               make_bridge_packets, run_engine_microbench)
from repro.experiments.fig3 import PAPER_PROGRAMS
from repro.experiments.report import QUICK, section_fig3
from repro.experiments.microbench import N_FLOWS
from repro.jit.pipeline import count_source_lines


class TestFig3Harness:
    def test_table_has_all_five_programs(self):
        rows = fig3_codegen_table()
        assert len(rows) == 5
        names = {r.name for r in rows}
        assert "MPEG (monitor)" in names

    def test_rows_carry_paper_numbers(self):
        rows = fig3_codegen_table()
        by_name = {r.name: r for r in rows}
        assert by_name["Extensible Web Server"].paper_lines == 91
        assert by_name["Extensible Web Server"].paper_codegen_ms == 15.3
        # ours keep the table's order of size: monitor above client
        assert by_name["MPEG (monitor)"].lines \
            > by_name["MPEG (client)"].lines

    def test_line_counts_match_sources(self):
        rows = fig3_codegen_table()
        for row in rows:
            source = PAPER_PROGRAMS[row.name][0]
            assert row.lines == count_source_lines(source)

    def test_format_produces_one_line_per_program(self):
        """The report's figure 3 section: title, blank line, header,
        rule, then one row per program."""
        lines = section_fig3({}, QUICK).splitlines()
        assert len(lines) == 4 + len(PAPER_PROGRAMS)
        assert [line.split(" | ")[0].lstrip("| ") for line in lines[4:]] \
            == list(PAPER_PROGRAMS)

    def test_count_source_lines_skips_comments_and_blanks(self):
        assert count_source_lines("-- c\n\nval x : int = 1\n") == 1


class TestMicrobenchHarness:
    def test_packets_cycle_flows(self):
        packets = make_bridge_packets()
        assert len(packets) == N_FLOWS
        assert len({p[0].src for p in packets}) == N_FLOWS

    @pytest.mark.parametrize("engine", ["interpreter", "closure",
                                        "source", "builtin"])
    def test_all_engines_run(self, engine):
        assert run_engine_microbench(engine=engine, n_packets=500) > 0

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

        packets = make_bridge_packets()
        info = typecheck(parse(BRIDGE_ASP))
        ctx = _NullContext()
        interp = Interpreter(info, ctx)
        decl = info.channels["network"][0]
        ps_asp, ss = 0, interp.initial_channel_state(decl, ctx)
        table = PlanPTable(1024)
        ps_builtin = 0
        for i in range(30):
            packet = packets[i % len(packets)]
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
        from repro.experiments.report import QUICK, generate, section_mpeg
        from repro.harness import (ResultStore, Runner, Scenario,
                                   report_matrix)

        by_name = {s.name: s for s in report_matrix(QUICK)}
        plain, asps = by_name["quick/mpeg/plain"], by_name["quick/mpeg/asps"]
        store = ResultStore(tmp_path)
        Runner(store).run(Scenario("elsewhere/mpeg", plain.experiment,
                                   plain.params, seed=plain.seed))
        direct = {plain.name: Runner().run(plain),
                  asps.name: Runner(store).run(asps)}
        text = generate(QUICK, only=["mpeg"], store=store,
                        run_missing=False)
        assert section_mpeg(direct, QUICK) in text
        assert "| plain | 3 |" in text
