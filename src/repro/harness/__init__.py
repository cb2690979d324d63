"""The parallel experiment harness: Scenario → Runner → ResultStore.

The paper's evaluation (figures 3–8) is a matrix of independent
simulator runs.  This package makes that matrix declarative and
parallel:

* :class:`~repro.harness.scenario.Scenario` — one run as pure data
  (experiment name, params, seed, tags);
* :mod:`~repro.harness.registry` — every ``run_*`` entry point behind
  one ``run(scenario) -> ExperimentResult`` interface;
* :class:`~repro.harness.runner.Runner` — fans a matrix out over a
  ``ProcessPoolExecutor``; each worker owns its own seeded simulator,
  so parallel records are byte-identical to serial ones;
* :class:`~repro.harness.store.ResultStore` — the JSONL record store
  under ``results/`` that report generation reads;
* :mod:`~repro.harness.cache` — content-addressed caching keyed on
  (params, seed, code fingerprint), making sweeps resumable;
* :mod:`~repro.harness.matrix` — the standard / smoke / report
  scenario matrices.

CLI: ``python -m repro.tools.runx {list,run,sweep}``.
"""

from ..experiments.result import ExperimentResult
from .cache import cache_key, code_fingerprint
from .matrix import (FULL, MATRICES, QUICK, Scale, chaos_matrix, matrix,
                     report_matrix, smoke_matrix, standard_matrix)
from .registry import get, rehydrate, run
from .runner import (Runner, SweepReport, relabel_line,
                     run_scenario_line)
from .scenario import Scenario, filter_scenarios
from .store import ResultStore

__all__ = [
    "FULL",
    "MATRICES",
    "QUICK",
    "ExperimentResult",
    "ResultStore",
    "Runner",
    "Scale",
    "Scenario",
    "SweepReport",
    "cache_key",
    "chaos_matrix",
    "code_fingerprint",
    "filter_scenarios",
    "get",
    "matrix",
    "rehydrate",
    "relabel_line",
    "report_matrix",
    "run",
    "run_scenario_line",
    "smoke_matrix",
    "standard_matrix",
]
