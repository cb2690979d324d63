"""One round of one workload, in a process of its own.

``python -m bench._child --workload W --seed N --size full --trace 0``
prints the round's record as one JSON line (the last line of stdout).
A fresh process per round means cold program caches, a clean heap and a
peak RSS that belongs to this round alone, and it makes ``import
repro...`` part of every round's set-up, as it is for a user.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys


def run_round(workload: str, seed: int, size: str, traced: bool,
              spans_out: str | None = None) -> dict:
    from .trace import PhaseClock, Tracer  # stdlib only: not the program

    tracer = Tracer() if traced else None
    clock = PhaseClock(tracer)
    clock.begin_imports()
    try:
        from . import metrics
        from .workloads import WORKLOADS, digest
    finally:
        clock.end_imports()
    clock.install()
    if tracer is not None:
        tracer.install()
    gc.collect()
    try:
        clock.start()
        outcome = WORKLOADS[workload](seed, size, clock)
        clock.stop()
    finally:
        if tracer is not None:
            tracer.uninstall()
        clock.uninstall()
    if tracer is not None and spans_out:
        tracer.write_spans(spans_out)
    return {
        "workload": workload, "seed": seed, "size": size, "traced": traced,
        **clock.record(),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": outcome.ops,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "invariants": outcome.invariants,
        "digest": digest(outcome.results),
        "counts": metrics.counts_from_snapshot(outcome.snapshot,
                                               outcome.extra),
        "trace": tracer.summary() if tracer is not None else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench._child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    record = run_round(args.workload, args.seed, args.size,
                       bool(args.trace), args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
