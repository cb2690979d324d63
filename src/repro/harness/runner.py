"""The parallel scenario runner.

Scenarios are embarrassingly parallel: every run builds its own
seeded :class:`~repro.net.sim.Simulator` inside its own process, so a
``ProcessPoolExecutor`` fan-out produces records byte-identical to a
serial loop (asserted by the determinism tests and the harness
benchmark).  The runner consults the content-addressed cache before
dispatching, appends completed lines to the store as they finish
(resumable — a killed sweep re-run executes only what is missing), and
reports per-scenario wall times for the benchmark.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..experiments.result import ExperimentResult
from . import registry
from .cache import cache_key
from .scenario import Scenario
from .store import ResultStore


def run_scenario_line(scenario: Scenario) -> dict[str, Any]:
    """Run one scenario and build its store line.  This is the one
    code path shared by serial and parallel execution — the worker
    function simply calls it in another process."""
    t0 = time.perf_counter()
    result = registry.run(scenario)
    elapsed = time.perf_counter() - t0
    return {
        "scenario": scenario.name,
        "experiment": scenario.experiment,
        "seed": scenario.seed,
        "tags": sorted(scenario.tags),
        "cache_key": cache_key(scenario),
        "record": result.record(),
        "elapsed_s": round(elapsed, 4),
    }


def _worker(doc: dict[str, Any]) -> dict[str, Any]:
    return run_scenario_line(Scenario.from_dict(doc))


def relabel_line(line: dict[str, Any],
                 scenario: Scenario) -> dict[str, Any]:
    """The line re-identified as ``scenario``.

    ``cache_key()`` deliberately excludes name and tags, so a cache hit
    may carry the labels of whichever same-content scenario ran first
    (``standard/fig6`` satisfying ``full/fig6``).  Consumers key lines
    by name, so a served line must wear the requested identity.
    Returns ``line`` itself when nothing differs.
    """
    tags = sorted(scenario.tags)
    if line["scenario"] == scenario.name and line["tags"] == tags:
        return line
    return {**line, "scenario": scenario.name, "tags": tags,
            "record": {**line["record"], "name": scenario.name}}


@dataclass
class SweepReport:
    """What a sweep did: every line (cached and fresh), and how long."""

    lines: list[dict[str, Any]] = field(default_factory=list)
    ran: list[str] = field(default_factory=list)
    cached: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 1

    def records_by_name(self) -> dict[str, dict[str, Any]]:
        return {line["scenario"]: line["record"] for line in self.lines}

    def summary(self) -> str:
        return (f"{len(self.lines)} scenarios: {len(self.ran)} ran, "
                f"{len(self.cached)} cached "
                f"({self.workers} worker{'s' if self.workers != 1 else ''}"
                f", wall {self.wall_s:.1f}s)")


ProgressFn = Callable[[str, dict[str, Any]], None]


class Runner:
    """Fans a scenario matrix out over worker processes.

    ``workers=1`` runs serially in-process; ``workers=N`` uses a
    process pool.  ``use_cache=False`` forces re-runs (the benchmark
    does this to time real work).  ``progress`` is called with
    ``("cached"|"ran", line)`` as each scenario resolves.
    """

    def __init__(self, store: ResultStore | None = None,
                 workers: int = 1, use_cache: bool = True,
                 progress: ProgressFn | None = None):
        self.store = store
        self.workers = max(1, workers)
        self.use_cache = use_cache
        self.progress = progress

    # -- single scenario --------------------------------------------------------

    def run(self, scenario: Scenario) -> ExperimentResult:
        """Run (or load from cache) one scenario, returning the
        rehydrated result object."""
        cached = self._cached().get(cache_key(scenario))
        if cached is not None:
            return registry.rehydrate(
                self._serve_cached(cached, scenario))
        line = run_scenario_line(scenario)
        self._append(line)
        self._notify("ran", line)
        return registry.rehydrate(line)

    # -- sweeps -----------------------------------------------------------------

    def sweep(self, scenarios: Iterable[Scenario]) -> SweepReport:
        """Run every scenario, skipping cache hits, in parallel when
        ``workers > 1``.  Scenarios with identical cache keys (same
        experiment, params and seed under different names) execute
        once; the duplicates are served from the first completion,
        relabeled.  Lines land in the store (and the report) in
        completion order; records are order-independent."""
        t0 = time.perf_counter()
        todo: list[Scenario] = []
        seen: set[str] = set()
        for scenario in scenarios:
            if scenario.name not in seen:
                seen.add(scenario.name)
                todo.append(scenario)

        report = SweepReport(workers=self.workers)
        cached = self._cached()
        pending: list[Scenario] = []
        # same-key scenarios queued behind the one that actually runs,
        # served (relabeled) when its line completes
        aliases: dict[str, list[Scenario]] = {}
        for scenario in todo:
            key = cache_key(scenario)
            line = cached.get(key)
            if line is not None:
                self._serve_cached(line, scenario, report)
            elif key in aliases:
                aliases[key].append(scenario)
            else:
                aliases[key] = []
                pending.append(scenario)

        if self.workers == 1 or len(pending) <= 1:
            for scenario in pending:
                self._finish(run_scenario_line(scenario), report,
                             aliases)
        else:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                futures = {pool.submit(_worker, s.to_dict())
                           for s in pending}
                while futures:
                    done, futures = wait(futures,
                                         return_when=FIRST_COMPLETED)
                    for future in done:
                        self._finish(future.result(), report, aliases)

        report.wall_s = time.perf_counter() - t0
        return report

    # -- internals --------------------------------------------------------------

    def _finish(self, line: dict[str, Any], report: SweepReport,
                aliases: dict[str, list[Scenario]]) -> None:
        self._append(line)
        report.lines.append(line)
        report.ran.append(line["scenario"])
        self._notify("ran", line)
        for scenario in aliases.get(line["cache_key"], ()):
            self._serve_cached(line, scenario, report)

    def _serve_cached(self, line: dict[str, Any], scenario: Scenario,
                      report: SweepReport | None = None,
                      ) -> dict[str, Any]:
        """Serve a stored (or just-completed same-key) line as a cache
        hit for ``scenario``, relabeled to its identity.  Relabeled
        lines are appended to the store so name-keyed loads
        (``store.by_name()``, ``report --no-run``) find them under the
        requested name too."""
        served = relabel_line(line, scenario)
        if served is not line:
            self._append(served)
        if report is not None:
            report.lines.append(served)
            report.cached.append(scenario.name)
        self._notify("cached", served)
        return served

    def _cached(self) -> dict[str, dict[str, Any]]:
        if not (self.use_cache and self.store):
            return {}
        return self.store.by_cache_key()

    def _append(self, line: dict[str, Any]) -> None:
        if self.store is not None:
            self.store.append(line)

    def _notify(self, kind: str, line: dict[str, Any]) -> None:
        if self.progress is not None:
            self.progress(kind, line)
