"""Command line of the benchmark.

Two ways to run it, one measuring core:

``python3 -m bench --workload W --seed N --seconds S --trace 0|1``
    One workload, rounds back to back until ``S`` seconds are used.
    ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
    per-layer ledger.  The last line of stdout is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.

``python3 -m bench [--rounds 5] [--seed 11] [--smoke] [--aa] [--out DIR]``
    All six workloads, rounds interleaved (round 1 of every workload,
    then round 2, ...) so that a noisy stretch on the host costs each
    workload one round instead of costing one workload all of them, then
    one traced round each.  ``--aa`` does that twice and compares.

Every round is a fresh ``python -m bench._child`` process, one at a
time; this process only schedules them and does the arithmetic.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from . import metrics

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
BASELINE = HERE / "baseline.json"

#: the names in ``workloads.WORKLOADS`` (this process never imports the
#: program, so that a round cannot warm anything for the next)
WORKLOADS = ("scale_udp", "http_asp", "http_builtin", "audio_adapt",
             "asp_burst", "deploy_cold")
DEFAULT_SEED = 11
#: no child may outlive this (a full traced round takes ~10 s)
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A round could not be measured at all."""


# -- rounds ------------------------------------------------------------------------

def run_child(workload: str, seed: int, size: str, traced: bool,
              spans_out: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # this checkout's program and nothing else
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    cmd = [sys.executable, "-m", "bench._child", "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(traced))]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    try:
        # run() kills and reaps the child itself when the timeout hits
        proc = subprocess.run(cmd, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: round exceeded "
                         f"{CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: round exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def timeboxed_rounds(workload: str, seed: int, size: str, seconds: float,
                     with_trace: bool, out: Path | None) -> list[dict]:
    """Rounds of one workload until the next would overrun ``seconds``
    (judged by how long the last round of its kind took).  With tracing
    the kinds alternate, untraced first; at least one of each runs."""
    began = time.perf_counter()
    records: list[dict] = []
    took: dict[bool, float] = {}
    traced = False
    while True:
        elapsed = time.perf_counter() - began
        enough = len(records) >= (2 if with_trace else 1)
        if enough and elapsed + took.get(traced, 0.0) > seconds:
            return records
        start = time.perf_counter()
        records.append(run_child(workload, seed, size, traced,
                                 _spans_path(out, workload, traced)))
        took[traced] = time.perf_counter() - start
        traced = with_trace and not traced


def interleaved_rounds(workloads: tuple[str, ...], seed: int, size: str,
                       rounds: int, out: Path | None
                       ) -> dict[str, list[dict]]:
    records: dict[str, list[dict]] = {w: [] for w in workloads}
    for number in range(rounds + 1):
        traced = number == rounds
        for workload in workloads:
            records[workload].append(run_child(
                workload, seed, size, traced,
                _spans_path(out, workload, traced)))
    return records


def _spans_path(out: Path | None, workload: str,
                traced: bool) -> Path | None:
    if out is None or not traced:
        return None
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{workload}.spans.jsonl"


# -- from rounds to one result -------------------------------------------------------

def expected_digest(workload: str, seed: int, size: str) -> str | None:
    pins = json.loads(EXPECTED.read_text())
    if seed != pins["seed"]:
        return None
    return pins[size].get(workload)


def summarise(workload: str, records: list[dict]) -> dict:
    """Check the rounds against each other and against the pins, then
    reduce them to metric values."""
    first = records[0]
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    problems: list[str] = []

    # Simulated results and counts are exact: every round of a run, traced
    # or not, must repeat them bit for bit.
    for record in records[1:]:
        for field in ("digest", "ops", "attempted", "failed", "counts"):
            if record[field] != first[field]:
                problems.append(f"{field} differs between rounds")
    for name, holds in first["invariants"].items():
        if not holds:
            problems.append(f"invariant broken: {name}")
    if first["failed"]:
        problems.append(f"{first['failed']} of {first['attempted']} "
                        f"operations failed")
    pinned = expected_digest(workload, first["seed"], first["size"])
    if pinned is not None and first["digest"] != pinned:
        problems.append(f"result digest {first['digest']} != pinned "
                        f"{pinned}")
    for record in traced:
        gap = metrics.ledger_gap_share(record)
        if gap > metrics.LEDGER_TOLERANCE:
            problems.append(f"ledger does not close: gap {gap:.3%}")
        for name in record["trace"]["missing"]:
            print(f"note: {workload}: no {name} to trace", file=sys.stderr)

    return {
        "workload": workload,
        "seed": first["seed"],
        "size": first["size"],
        "rounds": len(untraced),
        "correct": not problems,
        "problems": sorted(set(problems)),
        "attempted": first["attempted"],
        "failed": first["failed"],
        "digest": first["digest"],
        "end_to_end": metrics.end_to_end(untraced) if untraced else {},
        "per_layer": (metrics.per_layer(untraced, traced)
                      if traced and untraced else {}),
    }


def print_metrics(result: dict, catalogue, values: dict) -> None:
    for metric in catalogue:
        print(f"{result['workload']:13s} {metric.name:38s} "
              f"{values[metric.name]:>16.6f} {metric.unit}")


def print_problems(result: dict) -> None:
    for problem in result["problems"]:
        print(f"FAIL {result['workload']}: {problem}", file=sys.stderr)


# -- the two front ends -------------------------------------------------------------

def contract_run(args: argparse.Namespace) -> int:
    with_trace = bool(args.trace)
    records = timeboxed_rounds(args.workload, args.seed, args.size,
                               args.seconds, with_trace, args.out)
    result = summarise(args.workload, records)
    catalogue, values = ((metrics.PER_LAYER, result["per_layer"])
                         if with_trace else
                         (metrics.END_TO_END, result["end_to_end"]))
    print_metrics(result, catalogue, values)
    print_problems(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in catalogue}}))
    return 0 if result["correct"] else 1


def full_run(args: argparse.Namespace) -> tuple[dict[str, dict], dict]:
    """All selected workloads, interleaved; returns results by workload
    and the derived figures."""
    workloads = (args.workload,) if args.workload else WORKLOADS
    records = interleaved_rounds(workloads, args.seed, args.size,
                                 args.rounds, args.out)
    results = {w: summarise(w, records[w]) for w in workloads}
    for result in results.values():
        print_metrics(result, metrics.END_TO_END, result["end_to_end"])
        print_metrics(result, metrics.PER_LAYER, result["per_layer"])
        print_problems(result)
    derived = {}
    if "http_asp" in results and "http_builtin" in results:
        # The paper's own figure: what the ASP gateway costs over the
        # built-in one on identical traffic (the paper's claim is ~1.0).
        derived["asp_tax"] = (
            results["http_asp"]["end_to_end"]["run_wall_s"]
            / results["http_builtin"]["end_to_end"]["run_wall_s"])
        print(f"{'derived':13s} {'asp_tax':38s} "
              f"{derived['asp_tax']:>16.6f} ratio")
    return results, derived


def environment() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": model, "loadavg": list(os.getloadavg())}


def compare_aa(first: dict[str, dict], second: dict[str, dict]) -> bool:
    """Two runs of the same code must agree within the benchmark's own
    bounds on every (end-to-end metric, workload) pair, and on every
    count exactly."""
    agree = True
    print(f"\n{'workload':13s} {'metric':14s} {'first':>14s} "
          f"{'second':>14s} {'worse by':>9s} {'bound':>6s}")
    for workload, a in first.items():
        b = second[workload]
        for metric in metrics.END_TO_END:
            x, y = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            worse = (y - x) / x if metric.better == "lower" else (x - y) / x
            within = abs(worse) <= metric.bound
            agree &= within
            print(f"{workload:13s} {metric.name:14s} {x:14.6f} {y:14.6f} "
                  f"{worse:+9.2%} {metric.bound:6.0%}"
                  f"{'' if within else '  EXCEEDED'}")
        for metric in metrics.PER_LAYER:
            if metric.unit != "count":
                continue
            x, y = a["per_layer"][metric.name], b["per_layer"][metric.name]
            if x != y:
                agree = False
                print(f"{workload:13s} {metric.name}: count {x} != {y}")
    return agree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="time-box one workload (needs --workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --seconds: report per-layer metrics")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--smoke", dest="size", action="store_const",
                        const="smoke", default="full",
                        help="test-suite sizes (not comparable)")
    parser.add_argument("--aa", action="store_true",
                        help="run twice and compare within the bounds")
    parser.add_argument("--out", type=Path,
                        help="directory for raw spans and results.json")
    parser.add_argument("--write", action="store_true",
                        help=f"record results in {BASELINE.name}")
    parser.add_argument("--pin", action="store_true",
                        help=f"pin this run's result digests in "
                             f"{EXPECTED.name}")
    args = parser.parse_args(argv)

    try:
        if args.seconds is not None:
            if args.workload is None:
                parser.error("--seconds needs --workload")
            return contract_run(args)

        env = environment()
        results, derived = full_run(args)
        ok = all(r["correct"] for r in results.values())
        if args.aa:
            again, _ = full_run(args)
            ok &= all(r["correct"] for r in again.values())
            ok &= compare_aa(results, again)
        env["loadavg_end"] = list(os.getloadavg())
    except BenchError as err:
        print(f"FAIL {err}", file=sys.stderr)
        return 2

    report = {"seed": args.seed, "size": args.size, "rounds": args.rounds,
              "environment": env, "derived": derived, "results": results}
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "results.json").write_text(
            json.dumps(report, indent=1) + "\n")
    if args.write:
        BASELINE.write_text(json.dumps(report, indent=1) + "\n")
    if args.pin:
        pins = json.loads(EXPECTED.read_text())
        if args.seed != pins["seed"]:
            parser.error(f"pins are for seed {pins['seed']}")
        pins[args.size].update({w: r["digest"]
                                for w, r in results.items()})
        EXPECTED.write_text(json.dumps(pins, indent=1) + "\n")
    print(json.dumps({"correct": bool(ok), "derived": derived}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
