"""``fuzzx`` — the differential fuzzing CLI.

    python -m repro.tools.fuzzx run --budget 60 --seed 7
    python -m repro.tools.fuzzx run --budget 0 --min-pairs 500 \\
        --out tests/fuzz/corpus --json report.json
    python -m repro.tools.fuzzx pairs --budget 60 --seed 7
    python -m repro.tools.fuzzx replay tests/fuzz/corpus
    python -m repro.tools.fuzzx replay tests/fuzz/corpus/wire/case.json
    python -m repro.tools.fuzzx replay --minimize failing-case.json

``run`` executes a bounded-time campaign: seeded program generation,
adversarial streams, and the engine×mode differential oracle.
It prints a JSON report and exits 1 iff any divergence (or
containment leak) was found, 2 on a usage error — the CI smoke step
is exactly ``fuzzx run --budget 60 --seed $RUN_ID`` with the exit code
as the verdict.  Findings are minimized and written as replayable case
files under ``--out``.

``pairs`` runs the wire-compatibility validation campaign: pairs of
program generations related by a channel-signature mutation, the
static :func:`repro.analysis.wire.check_compatible` verdict checked
against an actual packet exchange.  It exits non-zero iff any false
accept was found — the rollout gate trusting a checker that would
have waved a protocol break through.

``replay`` re-runs committed case files through the matching oracle,
dispatching on the case file's ``kind`` (engine-divergence cases and
wire-compatibility cases share the corpus); a directory stands for
every ``*.json`` under it.  A healthy corpus case
passes (the bug it captured is fixed and stays fixed); a failing
replay prints the detail and exits 1.  With ``--minimize`` a
still-failing case is shrunk further in place.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..fuzz import (WIRE_CASE_KIND, load_case, load_wire_case,
                    minimize_case, run_campaign, run_case,
                    run_pair_campaign, run_wire_case, save_case)
from ..fuzz.oracle import DEFAULT_BACKENDS, trace_matrix
from . import at_least


def _backend_subset(text: str) -> tuple[str, ...]:
    """An argparse ``type``: a comma-separated backend subset that
    leaves the oracle something to compare (else exit 2)."""
    backends = tuple(b.strip() for b in text.split(",") if b.strip())
    for b in backends:
        if b not in DEFAULT_BACKENDS:
            raise argparse.ArgumentTypeError(
                f"unknown backend {b!r} (choose from "
                f"{', '.join(DEFAULT_BACKENDS)})")
    if len(trace_matrix(backends)) < 2:
        raise argparse.ArgumentTypeError(
            f"{text!r} leaves nothing to compare: name two backends, "
            "or closure (the one with a batch mode)")
    return backends


def cmd_run(args: argparse.Namespace) -> int:
    report = run_campaign(
        args.seed, budget_s=args.budget, min_pairs=args.min_pairs,
        max_pairs=args.max_pairs,
        streams_per_program=args.streams_per_program,
        stream_len=args.stream_len, batch_size=args.batch_size,
        backends=args.backends, out_dir=args.out,
        minimize=not args.no_minimize)
    doc = report.to_dict()
    if args.json:
        with open(args.json, "w") as fp:
            json.dump(doc, fp, indent=2, sort_keys=True)
            fp.write("\n")
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if not report.ok:
        print(f"{report.divergences} divergence(s) in {report.pairs} "
              f"pairs — case files under {args.out or '(not saved)'}",
              file=sys.stderr)
        return 1
    print(f"ok: {report.pairs} pairs, {report.programs} programs, "
          f"0 divergences in {report.elapsed_s:.1f}s", file=sys.stderr)
    return 0


def cmd_pairs(args: argparse.Namespace) -> int:
    report = run_pair_campaign(
        args.seed, budget_s=args.budget, min_pairs=args.min_pairs,
        max_pairs=args.max_pairs, out_dir=args.out,
        minimize=not args.no_minimize)
    doc = report.to_dict()
    if args.json:
        with open(args.json, "w") as fp:
            json.dump(doc, fp, indent=2, sort_keys=True)
            fp.write("\n")
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if not report.ok:
        print(f"{report.false_accepts} false accept(s) in "
              f"{report.pairs} pairs — case files under "
              f"{args.out or '(not saved)'}", file=sys.stderr)
        return 1
    print(f"ok: {report.pairs} pairs, {report.divergent} divergent, "
          f"0 false accepts in {report.elapsed_s:.1f}s",
          file=sys.stderr)
    return 0


def _replay_wire(path: str, case: dict) -> bool:
    """Replay one wire-compatibility case; True iff healthy: the
    exchange still diverges AND the checker flags the pair."""
    report, divergences = run_wire_case(case)
    if divergences and not report.ok:
        print(f"ok    {path}  ({len(case['packets'])} packets, "
              f"verdict {report.verdict})")
        return True
    print(f"FAIL  {path}")
    if not divergences:
        print("      exchange no longer diverges (stale witness)")
    if report.ok:
        print(f"      checker accepts the pair ({report.verdict}) "
              f"despite the divergence — false accept regressed")
        for line in divergences[:3]:
            print(f"      {line}")
    return False


def cmd_replay(args: argparse.Namespace) -> int:
    failed = 0
    paths: list[Path] = []
    for case in map(Path, args.cases):
        paths += sorted(case.rglob("*.json")) if case.is_dir() else [case]
    for path in paths:
        with open(path) as fp:
            kind = json.load(fp).get("kind")
        if kind == WIRE_CASE_KIND:
            if not _replay_wire(path, load_wire_case(path)):
                failed += 1
            continue
        case = load_case(path)
        result = run_case(case, backends=args.backends)
        if result.ok:
            print(f"ok    {path}  ({len(case['packets'])} packets)")
            continue
        failed += 1
        print(f"FAIL  {path}")
        for d in result.divergences:
            print(f"      {d.backend}/{d.mode}: {d.detail}")
        if args.minimize:
            minimized, steps = minimize_case(case,
                                             backends=args.backends)
            save_case(minimized, path)
            print(f"      minimized to {len(minimized['packets'])} "
                  f"packets in {steps} steps — rewrote {path}")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.fuzzx",
        description="grammar-based differential fuzzing harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a bounded-time campaign")
    p_run.add_argument("--seed", type=int, default=0,
                       help="campaign seed (default: 0)")
    p_run.add_argument("--budget", type=float, default=60.0,
                       metavar="SECONDS",
                       help="time budget; the --min-pairs floor still "
                            "applies (default: 60)")
    p_run.add_argument("--min-pairs", type=at_least(1), default=200,
                       metavar="N",
                       help="minimum (program, stream) pairs (default: "
                            "200)")
    p_run.add_argument("--max-pairs", type=at_least(1), default=None,
                       metavar="N", help="hard cap on pairs")
    p_run.add_argument("--streams-per-program", type=at_least(1),
                       default=4, metavar="N")
    p_run.add_argument("--stream-len", type=at_least(1), default=12,
                       metavar="N")
    p_run.add_argument("--batch-size", type=at_least(1), default=4,
                       metavar="N")
    p_run.add_argument("--backends", metavar="B1,B2",
                       type=_backend_subset, default=DEFAULT_BACKENDS,
                       help="comma-separated backend subset (default: "
                            "all three)")
    p_run.add_argument("--out", metavar="DIR",
                       help="directory for minimized finding case files")
    p_run.add_argument("--json", metavar="PATH",
                       help="also write the report JSON to a file")
    p_run.add_argument("--no-minimize", action="store_true",
                       help="save findings unminimized")
    p_run.set_defaults(fn=cmd_run)

    p_pairs = sub.add_parser(
        "pairs", help="validate the wire-compat checker against "
                      "actual packet exchange")
    p_pairs.add_argument("--seed", type=int, default=0,
                         help="campaign seed (default: 0)")
    p_pairs.add_argument("--budget", type=float, default=60.0,
                         metavar="SECONDS",
                         help="time budget; the --min-pairs floor "
                              "still applies (default: 60)")
    p_pairs.add_argument("--min-pairs", type=at_least(1), default=150,
                         metavar="N",
                         help="minimum program pairs (default: 150)")
    p_pairs.add_argument("--max-pairs", type=at_least(1), default=None,
                         metavar="N", help="hard cap on pairs")
    p_pairs.add_argument("--out", metavar="DIR",
                         help="directory for minimized false-accept "
                              "case files")
    p_pairs.add_argument("--json", metavar="PATH",
                         help="also write the report JSON to a file")
    p_pairs.add_argument("--no-minimize", action="store_true",
                         help="save findings unminimized")
    p_pairs.set_defaults(fn=cmd_pairs)

    p_replay = sub.add_parser("replay", help="re-run case files")
    p_replay.add_argument("cases", nargs="+", metavar="CASE.json|DIR")
    p_replay.add_argument("--backends", metavar="B1,B2",
                          type=_backend_subset, default=DEFAULT_BACKENDS)
    p_replay.add_argument("--minimize", action="store_true",
                          help="shrink still-failing cases in place")
    p_replay.set_defaults(fn=cmd_replay)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
