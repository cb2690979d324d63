"""Every ``python -m`` entry point starts: the ``__main__`` blocks are
the only code that reads ``sys.argv``, so each is run once, in a
subprocess, with ``--help``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

MODULES = ["repro.tools.runx", "repro.tools.obsdump", "repro.tools.fuzzx",
           "repro.tools.planpc", "repro.experiments.report"]


@pytest.mark.parametrize("module", MODULES)
def test_help_exits_zero(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-m", module, "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
