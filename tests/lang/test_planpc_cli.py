"""``planpc`` CLI tests."""

import pytest

from repro.tools.planpc import main

GOOD = """\
val x : int = 3
channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  (OnRemote(network, p); (ps + x, ss))
"""

UNSAFE = """\
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); OnRemote(network, p); (ps, ss))
"""


@pytest.fixture
def good(tmp_path):
    path = tmp_path / "good.planp"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def unsafe(tmp_path):
    path = tmp_path / "unsafe.planp"
    path.write_text(UNSAFE)
    return str(path)


class TestCheck:
    def test_good_program(self, good, capsys):
        assert main(["check", good]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "channel network" in out

    def test_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "broken.planp"
        path.write_text("channel (")
        assert main(["check", str(path)]) == 1
        assert "broken.planp" in capsys.readouterr().err

    def test_type_error(self, tmp_path, capsys):
        path = tmp_path / "typed.planp"
        path.write_text(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (true, ss))")
        assert main(["check", str(path)]) == 1

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.planp"]) == 2


class TestVerify:
    def test_accepts_safe(self, good, capsys):
        assert main(["verify", good]) == 0
        out = capsys.readouterr().out
        assert "ACCEPTED" in out
        assert out.count("PASS") == 4

    def test_rejects_unsafe(self, unsafe, capsys):
        assert main(["verify", unsafe]) == 1
        out = capsys.readouterr().out
        assert "REJECTED" in out
        assert "FAIL duplication" in out


class TestCompile:
    @pytest.mark.parametrize("backend", ["interpreter", "closure",
                                         "source"])
    def test_compile_backends(self, good, backend, capsys):
        assert main(["compile", good, "--backend", backend]) == 0
        assert "compiled" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["interpreter", "closure",
                                         "source"])
    def test_stages_prints_the_five_pipeline_stages(self, good, backend,
                                                    capsys):
        assert main(["compile", good, "--backend", backend,
                     "--stages"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "compiled" in lines[0]
        stages = [line.split() for line in lines[1:]]
        assert [s[0] for s in stages] == [
            "lex+parse", "typecheck", "verify", "wire", "codegen"]
        assert all(s[2] == "ms" and float(s[1]) >= 0 for s in stages)
        # the front end really ran inside this call, not an earlier one
        assert float(stages[0][1]) > 0 and float(stages[2][1]) > 0

    def test_stages_covers_an_unverifiable_program(self, unsafe, capsys):
        """The stage view is a cost report, not the install gate."""
        assert main(["compile", unsafe, "--stages"]) == 0
        assert "verify" in capsys.readouterr().out

    def test_without_stages_prints_one_line(self, good, capsys):
        assert main(["compile", good]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_emit_requires_source_backend(self, good, capsys):
        assert main(["compile", good, "--backend", "closure",
                     "--emit"]) == 2

    def test_emit_works_on_the_default_backend(self, good, capsys):
        assert main(["compile", good, "--emit"]) == 0
        assert "def C_network_0(" in capsys.readouterr().out

    def test_emit_prints_python(self, good, capsys):
        assert main(["compile", good, "--backend", "source",
                     "--emit"]) == 0
        out = capsys.readouterr().out
        assert "def C_network_0(" in out
        compile(out.split("ms\n", 1)[1], "<emitted>", "exec")


class TestFmtAndBench:
    def test_fmt_output_reparses(self, good, capsys, tmp_path):
        assert main(["fmt", good]) == 0
        text = capsys.readouterr().out
        again = tmp_path / "again.planp"
        again.write_text(text)
        assert main(["check", str(again)]) == 0

    def test_bench_reports_all_engines(self, good, capsys):
        assert main(["bench", good, "-n", "200"]) == 0
        out = capsys.readouterr().out
        for engine in ("interpreter", "closure", "source"):
            assert engine in out

    def test_bench_paper_asp(self, tmp_path, capsys):
        from repro.asps import http_gateway_asp

        path = tmp_path / "gw.planp"
        path.write_text(http_gateway_asp("10.0.1.2",
                                         ["10.0.2.2", "10.0.3.2"]))
        assert main(["bench", str(path), "-n", "200"]) == 0
