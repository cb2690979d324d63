"""Deterministic divergence case files and the greedy minimizer.

A *case* is everything needed to reproduce one oracle verdict: the
program source, the packet stream as :class:`PacketSpec` dicts, the
batch size, and the campaign seed that found it.  Cases serialize to
JSON (payloads hex-encoded), so a found divergence is committed under
``tests/fuzz/corpus/`` and replayed forever by ``fuzzx replay`` and
the corpus regression test.

The minimizer (:func:`ddmin`, shared with the wire-pair cases of
:mod:`.pairs`) is ddmin-flavoured greedy shrinking: drop packet chunks
(halving, then singles), then shrink the surviving payloads (truncate,
zero) and simplify tags — accepting any candidate on which the oracle
still fails.  Every oracle invocation counts as one minimizer step
against the step budget.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from ..lang import parse, typecheck
from .oracle import DEFAULT_BACKENDS, CompareResult, compare_all
from .streams import PacketSpec

CASE_KIND = "planp-fuzz-case"
CASE_VERSION = 1
#: oracle invocations :func:`minimize_case` may spend on one finding
MINIMIZE_STEPS = 400


def make_case(source: str, specs: list[PacketSpec], *, seed: int = 0,
              batch_size: int = 4, note: str = "") -> dict:
    return {
        "version": CASE_VERSION,
        "kind": CASE_KIND,
        "seed": seed,
        "batch_size": batch_size,
        "note": note,
        "program": source,
        "packets": [s.to_dict() for s in specs],
    }


def save_case(case: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(case, indent=2, sort_keys=True) + "\n")
    return path


def load_case(path: str | Path) -> dict:
    case = json.loads(Path(path).read_text())
    if case.get("kind") != CASE_KIND:
        raise ValueError(f"{path} is not a {CASE_KIND} file")
    return case


def case_specs(case: dict) -> list[PacketSpec]:
    return [PacketSpec.from_dict(d) for d in case["packets"]]


def _oracle(case: dict, backends):
    """``specs -> CompareResult`` under the case's program and batch
    size."""
    info = typecheck(parse(case["program"]))
    return lambda specs: compare_all(
        info, specs, backends=backends or DEFAULT_BACKENDS,
        batch_size=case.get("batch_size", 4))


def run_case(case: dict, *, backends=None) -> CompareResult:
    """Re-run a case file through the oracle."""
    return _oracle(case, backends)(case_specs(case))


def ddmin(case: dict, fails, max_steps: int) -> tuple[dict, int]:
    """Greedily shrink ``case["packets"]`` while ``fails(specs)`` holds:
    drop packet chunks (halving, then singles), then per surviving
    packet halve the payload, zero it and drop the channel tag.

    The one minimizer under both case kinds.  Returns ``(minimized
    case, oracle invocations spent)``; invocations past ``max_steps``
    are refused (the candidate counts as passing).  A case that does
    not fail to begin with comes back unchanged — a flaky finding would
    otherwise minimize to noise.
    """
    steps = 0

    def still_fails(candidate: list[PacketSpec]) -> bool:
        nonlocal steps
        if steps >= max_steps:
            return False
        steps += 1
        return fails(candidate)

    specs = case_specs(case)
    if not still_fails(specs):
        return case, steps

    chunk = max(1, len(specs) // 2)
    while chunk >= 1:
        i = 0
        while i < len(specs) and len(specs) > 1:
            candidate = specs[:i] + specs[i + chunk:]
            if candidate and still_fails(candidate):
                specs = candidate
            else:
                i += chunk
        if chunk == 1:
            break
        chunk //= 2

    def try_spec(i: int, new: PacketSpec) -> bool:
        nonlocal specs
        if new == specs[i]:
            return False
        candidate = specs[:i] + [new] + specs[i + 1:]
        if still_fails(candidate):
            specs = candidate
            return True
        return False

    for i in range(len(specs)):
        while specs[i].payload:
            half = specs[i].payload[:len(specs[i].payload) // 2]
            if not try_spec(i, replace(specs[i], payload=half)):
                break
        try_spec(i, replace(specs[i],
                            payload=bytes(len(specs[i].payload))))
        try_spec(i, replace(specs[i], channel=None))

    minimized = dict(case)
    minimized["packets"] = [s.to_dict() for s in specs]
    note = case.get("note", "")
    minimized["note"] = (note + " " if note else "") + (
        f"[minimized to {len(specs)} packets in {steps} steps]")
    return minimized, steps


def minimize_case(case: dict, *, backends=None) -> tuple[dict, int]:
    """:func:`ddmin` a failing oracle case, preserving failure."""
    run = _oracle(case, backends)
    return ddmin(case, lambda specs: not run(specs).ok, MINIMIZE_STEPS)
