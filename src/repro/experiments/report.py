"""One-command regeneration of the EXPERIMENTS.md measurements.

    python -m repro.experiments.report            # full scale
    python -m repro.experiments.report --quick    # smoke scale
    python -m repro.experiments.report --workers 4

Report generation is **O(read)**: the simulated tables are formatted
from the JSONL result store (``results/`` by default), not from fresh
simulations.  Scenarios whose records are missing are run first —
through the harness, in parallel with ``--workers``, landing in the
store — so the command still works from a cold start, and a second
invocation formats purely from cache.  ``--no-run`` disables that
fallback and fails if records are missing (pair it with
``python -m repro.tools.runx sweep --matrix report-full``).

The two wall-clock tables — Figure 3's code-generation times and the
§2.4 engine microbenchmark — have no record: they are measured afresh
on every invocation, ``--no-run`` included, and never stored.
"""

from __future__ import annotations

import argparse
import sys

from ..harness.cache import cache_key
from ..harness.matrix import (FULL, GAP_SWEEP_LOADS, QUICK, Scale,
                              report_matrix)
from ..harness.registry import rehydrate
from ..harness.runner import Runner, relabel_line
from ..harness.store import ResultStore
from .fig3 import fig3_codegen_table
from .microbench import ENGINES, run_engine_microbench
from .result import ExperimentResult

__all__ = ["FULL", "QUICK", "Scale", "generate", "main"]


def md_table(headers: list[str], rows: list[list[object]]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


# -- metrics appendix ----------------------------------------------------------
#
# Each experiment section stashes a curated slice of its stored record
# metrics here; ``generate`` renders them as a closing appendix.  The
# store keeps only deterministic metrics (no process-global scope), so
# the appendix is diffable across runs.

_METRICS: dict[str, dict[str, object]] = {}

_APPENDIX_PREFIXES = (
    "drops_total", "faults_total", "http.errors_total",
    "images.errors_total", "events.", "sim.",
)


def _stash_metrics(section: str, metrics: dict[str, object]) -> None:
    curated = {key: value for key, value in sorted(metrics.items())
               if key.startswith(_APPENDIX_PREFIXES)}
    if curated:
        _METRICS[section] = curated


def _fmt_metric(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def section_metrics_appendix() -> str:
    parts = ["## Appendix — metrics snapshots\n",
             "Selected counters from each experiment's stored record "
             "(the deterministic slice of its `metrics_snapshot()`)."]
    for section, metrics in _METRICS.items():
        rows = [[key, _fmt_metric(value)]
                for key, value in metrics.items()]
        parts.append(f"### {section}\n\n"
                     + md_table(["metric", "value"], rows))
    return "\n\n".join(parts)


# -- section formatters --------------------------------------------------------
#
# Each takes rehydrated results (looked up by scenario name) and the
# scale, and returns markdown.  No formatter runs a simulation; the two
# wall-clock sections measure as they format.

Results = dict[str, ExperimentResult]


def section_fig3(results: Results, scale: Scale) -> str:
    rows = [[r.name, r.paper_lines, r.lines,
             f"{r.paper_codegen_ms:.1f}",
             f"{r.codegen_ms['closure']:.2f}",
             f"{r.codegen_ms['source']:.2f}"]
            for r in fig3_codegen_table()]
    return ("## Figure 3 — code generation time\n\n"
            + md_table(["program", "paper lines", "our lines",
                        "paper ms", "closure ms", "source ms"], rows))


def section_fig6(results: Results, scale: Scale) -> str:
    from ..apps.audio.codec import FORMAT_NAMES

    result = results[f"{scale.name}/fig6"]
    _stash_metrics("fig6 (audio)", result.metrics)
    d = scale.audio_duration
    windows = [("no load", 0.02 * d, 0.2 * d, "176"),
               ("large load", 0.27 * d, 0.47 * d, "44"),
               ("medium load", 0.53 * d, 0.73 * d, "44..88 (osc)"),
               ("small load", 0.8 * d, 0.98 * d, "88")]
    rows = []
    for name, a, b, paper in windows:
        rows.append([name, paper,
                     f"{result.mean_kbps_between(a, b):.1f}",
                     FORMAT_NAMES[result.dominant_quality_between(a, b)]])
    return (f"## Figure 6 — audio adaptation "
            f"(scaled to {d:.0f} s)\n\n"
            + md_table(["phase", "paper kbit/s", "measured kbit/s",
                        "dominant quality"], rows))


def section_fig7(results: Results, scale: Scale) -> str:
    sweep = results[f"{scale.name}/fig7"]
    rows = []
    for load in GAP_SWEEP_LOADS:
        level = sweep.level(load)
        rows.append([f"{load / 1e6:.1f} Mbit/s",
                     level["without_adaptation"],
                     level["with_adaptation"],
                     level["without_frames"],
                     level["with_frames"]])
    return ("## Figure 7 — silent periods\n\n"
            + md_table(["offered load", "gaps (no ASP)", "gaps (ASP)",
                        "frames (no ASP)", "frames (ASP)"], rows))


def section_fig8(results: Results, scale: Scale) -> str:
    modes = ("single", "asp", "builtin", "disjoint")
    by_mode = {mode: results[f"{scale.name}/fig8/{mode}"]
               for mode in modes}
    _stash_metrics("fig8 (http, asp mode)", by_mode["asp"].metrics)
    rows = [[mode, f"{r.figures['throughput_rps']:.1f}",
             f"{r.figures['mean_latency_s'] * 1000:.1f}",
             f"{r.balance_ratio:.2f}"]
            for mode, r in by_mode.items()]
    rps = {mode: r.figures["throughput_rps"]
           for mode, r in by_mode.items()}
    footer = (f"\nASP/single = {rps['asp'] / rps['single']:.2f} "
              f"(paper 1.75); ASP/disjoint = "
              f"{rps['asp'] / rps['disjoint']:.2f} "
              f"(paper ~0.85); ASP/builtin = "
              f"{rps['asp'] / rps['builtin']:.2f} "
              f"(paper: no difference)")
    return ("## Figure 8 — HTTP cluster throughput\n\n"
            + md_table(["configuration", "req/s", "latency ms",
                        "balance"], rows) + footer)


def section_mpeg(results: Results, scale: Scale) -> str:
    with_asps = results[f"{scale.name}/mpeg/asps"]
    without = results[f"{scale.name}/mpeg/plain"]
    _stash_metrics("mpeg (with ASPs)", with_asps.metrics)
    rows = []
    for r in (without, with_asps):
        rows.append(["ASPs" if r.params["use_asps"] else "plain",
                     r.figures["server_sessions"],
                     f"{r.figures['uplink_bytes'] / 1e6:.2f} MB",
                     ", ".join(f"{x:.1f}"
                               for x in r.figures["per_client_rate"])])
    return ("## Section 3.3 — MPEG multipoint (3 viewers)\n\n"
            + md_table(["config", "server sessions", "uplink",
                        "client fps"], rows))


def section_microbench(results: Results, scale: Scale) -> str:
    us = {engine: run_engine_microbench(
              engine=engine, n_packets=scale.microbench_packets)
          for engine in ENGINES}
    rows = [[name, f"{value:.2f}", f"{value / us['builtin']:.2f}x"]
            for name, value in us.items()]
    return ("## Section 2.4 — engine microbenchmark\n\n"
            + md_table(["engine", "us/packet", "vs builtin"], rows))


SECTIONS = {
    "fig3": section_fig3,
    "fig6": section_fig6,
    "fig7": section_fig7,
    "fig8": section_fig8,
    "mpeg": section_mpeg,
    "microbench": section_microbench,
}

#: scenario-name suffixes each section reads (under ``<scale>/``)
_SECTION_SCENARIOS = {
    "fig3": (),
    "fig6": ("fig6",),
    "fig7": ("fig7",),
    "fig8": tuple(f"fig8/{m}"
                  for m in ("single", "asp", "builtin", "disjoint")),
    "mpeg": ("mpeg/asps", "mpeg/plain"),
    "microbench": (),
}


def _load_results(scale: Scale, sections: list[str],
                  store: ResultStore | None, workers: int,
                  run_missing: bool) -> Results:
    """Rehydrated results for every scenario the sections read.

    With a store, existing records are read (O(read)); missing ones
    are run through the harness (parallel for ``workers > 1``) unless
    ``run_missing`` is false, in which case missing records raise.
    """
    wanted = {f"{scale.name}/{suffix}" for section in sections
              for suffix in _SECTION_SCENARIOS[section]}
    scenarios = [s for s in report_matrix(scale) if s.name in wanted]
    if not run_missing:
        # Look up by content (cache key), not name: a record produced
        # under another matrix's name (e.g. a standard/ sweep) with the
        # same params satisfies the report scenario — relabel it.
        lines = store.by_cache_key() if store is not None else {}
        results: Results = {}
        missing: list[str] = []
        for scenario in scenarios:
            line = lines.get(cache_key(scenario))
            if line is None:
                missing.append(scenario.name)
            else:
                results[scenario.name] = rehydrate(
                    relabel_line(line, scenario))
        if missing:
            raise RuntimeError(
                f"no stored records for {sorted(missing)}; run `python "
                f"-m repro.tools.runx sweep --matrix "
                f"report-{scale.name}` or drop --no-run")
        return results
    report = Runner(store, workers=workers).sweep(scenarios)
    return {line["scenario"]: rehydrate(line) for line in report.lines}


def generate(scale: Scale, only: list[str] | None = None,
             store: ResultStore | None = None, workers: int = 1,
             run_missing: bool = True) -> str:
    sections = [name for name in SECTIONS if not only or name in only]
    results = _load_results(scale, sections, store, workers,
                            run_missing)
    parts = ["# Reproduced results (generated by "
             "`python -m repro.experiments.report`)"]
    _METRICS.clear()
    for name in sections:
        parts.append(SECTIONS[name](results, scale))
    if _METRICS:
        parts.append(section_metrics_appendix())
    return "\n\n".join(parts) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.experiments.report")
    parser.add_argument("--quick", action="store_true",
                        help="small-scale smoke run")
    parser.add_argument("--only", nargs="*", choices=sorted(SECTIONS),
                        help="limit to specific sections")
    parser.add_argument("--results", default="results", metavar="DIR",
                        help="JSONL result store (default: results)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="workers for missing scenarios")
    parser.add_argument("--no-run", action="store_true",
                        help="fail on missing records instead of "
                             "running them")
    args = parser.parse_args(argv)
    scale = QUICK if args.quick else FULL
    sys.stdout.write(generate(scale, only=args.only,
                              store=ResultStore(args.results),
                              workers=args.workers,
                              run_missing=not args.no_run))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
