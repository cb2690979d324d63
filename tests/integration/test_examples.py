"""The shipped examples run to completion (their asserts are checks)."""

import runpy
import sys


def run_example(name, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(f"examples/{name}", run_name="__main__")


def test_quickstart(monkeypatch, capsys):
    run_example("quickstart.py", monkeypatch)
    assert "quickstart OK" in capsys.readouterr().out


def test_verifier_demo(monkeypatch, capsys):
    run_example("verifier_demo.py", monkeypatch)
    out = capsys.readouterr().out
    assert out.count("ACCEPTED") == 5
    assert out.count("REJECTED") == 3


def test_network_deployment(monkeypatch, capsys):
    run_example("network_deployment.py", monkeypatch)
    out = capsys.readouterr().out
    assert "installed" in out and "REJECTED" in out


def test_image_distillation(monkeypatch, capsys):
    run_example("image_distillation.py", monkeypatch)
    assert "faster" in capsys.readouterr().out


def test_active_trace(monkeypatch, capsys):
    run_example("active_trace.py", monkeypatch)
    assert "active traceroute OK" in capsys.readouterr().out
