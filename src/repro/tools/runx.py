"""``runx`` — the experiment harness CLI.

    python -m repro.tools.runx list [--matrix M] [--filter TAG]
    python -m repro.tools.runx run NAME [NAME...] [--workers N]
    python -m repro.tools.runx sweep --filter smoke --workers 2
    python -m repro.tools.runx sweep --matrix standard --workers 4

``list`` shows the scenario matrices (name, experiment, seed, tags);
``run`` executes specific scenarios by name; ``sweep`` executes a whole
(filtered) matrix.  Both consult the content-addressed result cache in
``--results`` (default ``results/``) and skip scenarios whose
(params, seed, code) already have a stored record — so re-running a
finished sweep is O(read), and an interrupted one resumes where it
stopped.  ``--no-cache`` forces re-runs; ``--require-cached`` exits
non-zero if anything actually had to run (the CI cache-hit assertion).

Each sweep also writes ``sweep.json`` next to the store: workers, wall
time, cache hits, per-scenario elapsed — the wall-clock side channel
that deliberately stays out of the deterministic records.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from ..harness import (Runner, ResultStore, Scenario, filter_scenarios,
                       matrix, rehydrate)

from ..harness.matrix import MATRICES

MATRIX_CHOICES = ("all", *sorted(MATRICES))


def _select(args: argparse.Namespace) -> list[Scenario]:
    return filter_scenarios(matrix(args.matrix), args.filter)


def _progress(kind: str, line: dict[str, Any]) -> None:
    if kind == "cached":
        print(f"  cache {line['scenario']}")
    else:
        print(f"  ran   {line['scenario']:32s} "
              f"{line['elapsed_s']:8.2f}s")


def _write_sweep_summary(store: ResultStore, report) -> None:
    doc = {
        "workers": report.workers,
        "wall_s": round(report.wall_s, 3),
        "cpu_count": os.cpu_count(),
        "ran": sorted(report.ran),
        "cached": sorted(report.cached),
        "elapsed_s": {line["scenario"]: line["elapsed_s"]
                      for line in report.lines
                      if line["scenario"] in set(report.ran)},
    }
    store.root.mkdir(parents=True, exist_ok=True)
    (store.root / "sweep.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_list(args: argparse.Namespace) -> int:
    scenarios = _select(args)
    if not scenarios:
        print("no scenarios match", file=sys.stderr)
        return 1
    width = max(len(s.name) for s in scenarios)
    for s in scenarios:
        print(f"{s.name:{width}s}  {s.experiment:16s} seed={s.seed:<3d} "
              f"[{', '.join(sorted(s.tags))}]")
    print(f"{len(scenarios)} scenarios", file=sys.stderr)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    by_name = {s.name: s for s in matrix(args.matrix)}
    try:
        scenarios = [by_name[name] for name in args.names]
    except KeyError as exc:
        print(f"unknown scenario {exc.args[0]!r} (see `runx list`)",
              file=sys.stderr)
        return 2
    store = ResultStore(args.results)
    runner = Runner(store, workers=args.workers,
                    use_cache=not args.no_cache, progress=_progress)
    report = runner.sweep(scenarios)
    if args.json:
        by_name_lines = {line["scenario"]: line for line in report.lines}
        for name in args.names:
            result = rehydrate(by_name_lines[name])
            print(result.to_json())
    print(report.summary(), file=sys.stderr)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenarios = _select(args)
    if not scenarios:
        print("no scenarios match", file=sys.stderr)
        return 1
    store = ResultStore(args.results)
    runner = Runner(store, workers=args.workers,
                    use_cache=not args.no_cache, progress=_progress)
    report = runner.sweep(scenarios)
    _write_sweep_summary(store, report)
    print(report.summary(), file=sys.stderr)
    print(f"store: {store.path}", file=sys.stderr)
    if args.require_cached and report.ran:
        print(f"--require-cached: {len(report.ran)} scenarios were not "
              f"cached: {sorted(report.ran)}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.runx",
        description="declarative, parallel experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--matrix", default="all",
                       choices=MATRIX_CHOICES,
                       help="scenario matrix (default: all)")
        p.add_argument("--results", default="results", metavar="DIR",
                       help="result store directory (default: results)")
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="parallel worker processes (default: 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="re-run even when a cached record exists")

    p_list = sub.add_parser("list", help="show scenarios")
    p_list.add_argument("--matrix", default="all",
                        choices=MATRIX_CHOICES)
    p_list.add_argument("--filter", metavar="TAG",
                        help="tag (exact) or name substring")
    p_list.set_defaults(fn=cmd_list)

    p_run = sub.add_parser("run", help="run scenarios by name")
    p_run.add_argument("names", nargs="+", metavar="NAME")
    p_run.add_argument("--json", action="store_true",
                       help="print each result's canonical JSON")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a whole matrix")
    p_sweep.add_argument("--filter", metavar="TAG",
                         help="tag (exact) or name substring")
    p_sweep.add_argument("--require-cached", action="store_true",
                         help="fail if any scenario actually ran")
    common(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
