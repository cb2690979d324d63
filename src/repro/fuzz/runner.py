"""Bounded-time differential fuzzing campaigns.

A campaign derives per-iteration seeds from one campaign seed via
sha256 (stable across platforms, unlike ``hash()``), generates a
program, fires several adversarial streams at it, and runs every
(program, stream) pair through the full engine×mode oracle matrix.
Divergences are minimized and written as replayable case files.

Progress is visible through ``repro.obs`` counters —
``fuzz.programs`` / ``fuzz.streams`` / ``fuzz.pairs`` /
``fuzz.divergences`` / ``fuzz.minimizer_steps`` in the process-wide
scope — and the same totals ride the ``fuzzx run --json`` report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..lang import parse, typecheck
from ..obs import GLOBAL
from .grammar import check_grammar_coverage, gen_program
from .oracle import DEFAULT_BACKENDS, compare_all
from .replay import make_case, minimize_case, save_case
from .streams import gen_stream


def derive_seed(campaign_seed: int, *parts: object) -> int:
    """A stable 63-bit sub-seed for one campaign step."""
    text = ":".join(str(p) for p in (campaign_seed, *parts))
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def drive(report, step, *, obs, budget_s: float, min_pairs: int,
          max_pairs: int | None) -> None:
    """The campaign loop under both campaigns: call ``step(0)``,
    ``step(1)``, … until the time budget is spent AND ``min_pairs``
    pairs ran (the floor wins over the clock, so short CI budgets still
    execute a meaningful matrix), or ``max_pairs`` ran, or — past the
    floor — a finding exists (actionable; stop burning budget)."""
    obs.metrics.counter("fuzz.minimizer_steps")  # reads 0 when clean
    started = time.monotonic()
    index = 0
    while True:
        elapsed = time.monotonic() - started
        if report.pairs >= min_pairs and (elapsed >= budget_s
                                          or report.findings):
            break
        if max_pairs is not None and report.pairs >= max_pairs:
            break
        step(index)
        index += 1
    report.elapsed_s = time.monotonic() - started


def file_finding(report, finding, case: dict, *, minimizer, path,
                 obs, reason: str) -> None:
    """Book one finding: shrink its case (``minimizer`` None skips),
    save it (``path`` None skips), count and announce it."""
    if minimizer is not None:
        case, steps = minimizer(case)
        report.minimizer_steps += steps
        obs.metrics.counter("fuzz.minimizer_steps").inc(steps)
    finding.minimized_packets = len(case["packets"])
    if path is not None:
        save_case(case, path)
        finding.case_path = str(path)
    report.findings.append(finding)
    obs.events.emit("error", where="fuzz", reason=reason,
                    detail=finding.detail[:200])


@dataclass
class Finding:
    """One divergence (or containment leak) found by a campaign."""

    program_seed: int
    stream_seed: int
    detail: str
    case_path: str | None = None
    minimized_packets: int = 0


class Report:
    """The JSON form both campaign reports share: every field, plus
    ``ok``, with each finding's ``case_path`` under ``case``."""

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["elapsed_s"] = round(self.elapsed_s, 3)
        doc["ok"] = self.ok
        for finding in doc["findings"]:
            finding["case"] = finding.pop("case_path")
        return doc


@dataclass
class FuzzReport(Report):
    seed: int
    elapsed_s: float = 0.0
    programs: int = 0
    streams: int = 0
    pairs: int = 0
    divergences: int = 0
    minimizer_steps: int = 0
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.divergences == 0


def run_campaign(seed: int, *, budget_s: float = 60.0,
                 min_pairs: int = 200, max_pairs: int | None = None,
                 streams_per_program: int = 4, stream_len: int = 12,
                 batch_size: int = 4, backends=DEFAULT_BACKENDS,
                 out_dir: str | Path | None = None,
                 minimize: bool = True,
                 obs=None) -> FuzzReport:
    """Fuzz under :func:`drive`'s stopping rule, one program (and its
    ``streams_per_program`` pairs) per step.

    ``out_dir`` receives one minimized JSON case per finding.
    """
    obs = obs if obs is not None else GLOBAL
    metrics = obs.metrics
    c_programs = metrics.counter("fuzz.programs")
    c_streams = metrics.counter("fuzz.streams")
    c_pairs = metrics.counter("fuzz.pairs")
    c_divergences = metrics.counter("fuzz.divergences")

    # Rot guard first: a campaign over a stale grammar is false comfort.
    check_grammar_coverage(
        seeds=[derive_seed(seed, "coverage", i) for i in range(60)])

    report = FuzzReport(seed=seed)
    out = Path(out_dir) if out_dir is not None else None

    def step(program_index: int) -> None:
        program_seed = derive_seed(seed, "program", program_index)
        source = gen_program(random.Random(program_seed))
        info = typecheck(parse(source))
        report.programs += 1
        c_programs.inc()
        for stream_index in range(streams_per_program):
            stream_seed = derive_seed(seed, "stream", program_index,
                                      stream_index)
            specs = gen_stream(random.Random(stream_seed),
                               info, length=stream_len)
            report.streams += 1
            c_streams.inc()
            result = compare_all(info, specs, backends=backends,
                                 batch_size=batch_size)
            report.pairs += 1
            c_pairs.inc()
            if result.ok:
                continue
            report.divergences += len(result.divergences)
            c_divergences.inc(len(result.divergences))
            detail = "; ".join(
                f"{d.backend}/{d.mode}: {d.detail}"
                for d in result.divergences)
            file_finding(
                report,
                Finding(program_seed=program_seed,
                        stream_seed=stream_seed, detail=detail),
                make_case(source, specs, seed=seed,
                          batch_size=batch_size, note=detail),
                minimizer=(lambda case: minimize_case(
                    case, backends=backends)) if minimize else None,
                path=out and out / (f"div-{program_seed:016x}-"
                                    f"{stream_seed:016x}.json"),
                obs=obs, reason="divergence")

    drive(report, step, obs=obs, budget_s=budget_s, min_pairs=min_pairs,
          max_pairs=max_pairs)
    return report
