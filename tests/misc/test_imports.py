"""What an import loads (DESIGN §13c).

Package ``__init__``s resolve their re-exports on first access
(:mod:`repro._lazy`), and numpy is imported by the code that computes
with it.  A typo in a package's lazy table is invisible to lint, and a
stray top-level import brings back a cost nothing in the process uses,
so both are checked here: the surface of every package in this
process, what a run loads in a fresh interpreter.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
PACKAGES = sorted(".".join(init.parent.relative_to(SRC).parts)
                  for init in (SRC / "repro").rglob("__init__.py"))


@pytest.mark.parametrize("name", PACKAGES)
def test_package_surface(name):
    """Every name a package exports resolves, ``dir`` lists it, and a
    name it does not export is an ``AttributeError`` (which ``hasattr``
    and ``from package import submodule`` rely on)."""
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", [])
    for attr in exported:
        getattr(package, attr)  # AttributeError on a typo in the table
    assert set(exported) <= set(dir(package))
    assert not hasattr(package, "no_such_name")


#: the ``repro`` modules the benchmark's workloads import
#: (``bench/workloads.py``), written out so this test needs no ``bench``
WORKLOAD_IMPORTS = """
from repro import asps
from repro.apps.audio.experiment import FIG6_SCHEDULE, run_audio_experiment
from repro.apps.http.experiment import run_http_experiment
from repro.experiments.scale import run_scale_experiment
from repro.jit.pipeline import BACKENDS, ProgramCache
from repro.lang.errors import VerificationError
from repro.net.addresses import HostAddr
from repro.net.packet import tcp_packet, udp_packet
from repro.net.topology import Network
from repro.runtime.deployment import Deployment
"""

#: modules no part of that path calls
UNUSED = ("numpy", "repro.runtime.lifecycle", "repro.runtime.netdeploy",
          "repro.experiments.fig3", "repro.experiments.microbench",
          "repro.experiments.upgrade", "repro.experiments.web",
          "repro.experiments.chaos", "repro.net.trace",
          "repro.apps.http.cluster")


def _fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; it prints one JSON value."""
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


class TestImportPin:
    def test_workload_path_loads_nothing_it_does_not_run(self):
        code = WORKLOAD_IMPORTS + f"""
import json, sys
net = Network(seed=1, name="pin")
router = net.add_router("r")
net.link(router, net.add_host("h"))
net.finalize()
Deployment().install(asps.audio_router_asp(), [router])
result = run_scale_experiment(seed=1, n_clusters=2, hosts_per_cluster=2,
                              packets_per_host=2)
assert result.record()["figures"]["delivered"] > 0
print(json.dumps(sorted(set({UNUSED!r}) & set(sys.modules))))
"""
        assert _fresh(code) == []

    def test_planpc_check_loads_no_numpy(self, tmp_path):
        from repro import asps

        source = tmp_path / "router.planp"
        source.write_text(asps.audio_router_asp())
        code = f"""
import json, sys
from repro.tools.planpc import main
assert main(["check", {str(source)!r}]) == 0
print(json.dumps("numpy" in sys.modules))
"""
        assert _fresh(code) is False

    def test_audio_loads_numpy_before_the_run(self):
        """The audio source computes every frame inside the run; numpy
        must already be loaded when the first ``Network.run`` starts, or
        its import lands in the run's wall time."""
        code = """
import json, sys
from repro.apps.audio.experiment import run_audio_experiment
from repro.net.topology import Network

seen = []
run = Network.run

def first_run(net, *args, **kwargs):
    seen.append("numpy" in sys.modules)
    return run(net, *args, **kwargs)

Network.run = first_run
run_audio_experiment(adaptation=True, duration=1.0, seed=1)
print(json.dumps(seen[:1]))
"""
        assert _fresh(code) == [True]
