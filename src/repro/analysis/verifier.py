"""The late-checking verifier embedded in the run-time system.

When a program is downloaded into a node's PLAN-P layer, the four safety
analyses of paper §2.1 run against the source before installation:

1. local termination (structural restrictions),
2. global termination (abstract state exploration),
3. guaranteed packet delivery,
4. safe (linear) packet duplication.

``verify_report`` runs all of them and returns a structured report,
which the deployment tooling prints to operators; the install-time gate
over it is ``ProgramCache.check_verified``, which raises
:class:`VerificationError` naming the first failed analysis.

The paper notes that some legitimate protocols cannot be proven (e.g.
multicast-style duplication); the run-time accepts those only from
authenticated privileged users — modelled by ``Deployment.install(...,
verify=False)`` in :mod:`repro.runtime.deployment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.errors import VerificationError
from ..lang.typechecker import ProgramInfo
from ..obs.spans import span
from .delivery import DeliveryReport, check_delivery
from .duplication import DuplicationReport, check_duplication
from .paths import ProgramPaths, program_paths
from .termination import (GlobalTerminationReport, check_global_termination,
                          check_local_termination)

#: The order analyses run in (cheapest first).
ANALYSES = ("local-termination", "global-termination", "delivery",
            "duplication")


@dataclass
class AnalysisResult:
    name: str
    passed: bool
    elapsed_ms: float
    detail: str = ""


@dataclass
class VerificationReport:
    """All four analyses' outcomes for one program."""

    results: list[AnalysisResult] = field(default_factory=list)
    global_termination: GlobalTerminationReport | None = None
    delivery: DeliveryReport | None = None
    duplication: DuplicationReport | None = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> list[AnalysisResult]:
        return [r for r in self.results if not r.passed]

    def summary(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            detail = f" — {r.detail}" if r.detail else ""
            lines.append(f"{status} {r.name} ({r.elapsed_ms:.2f} ms)"
                         f"{detail}")
        return "\n".join(lines)


def verify_report(info: ProgramInfo) -> VerificationReport:
    """Run all four analyses, collecting outcomes (never raises)."""
    report = VerificationReport()

    def run(name: str, fn) -> None:
        # Each pass times into its own process-wide histogram
        # (``verify.<name>_ms``); the per-run elapsed still lands in
        # the report for operator output.
        try:
            with span(f"verify.{name}_ms") as timer:
                value = fn(info)
            report.results.append(
                AnalysisResult(name, True, timer.elapsed_ms))
            if isinstance(value, GlobalTerminationReport):
                report.global_termination = value
            elif isinstance(value, DeliveryReport):
                report.delivery = value
            elif isinstance(value, DuplicationReport):
                report.duplication = value
        except VerificationError as err:
            report.results.append(
                AnalysisResult(name, False, timer.elapsed_ms,
                               detail=err.message))

    # Global termination and duplication read the same execution paths:
    # enumerate them once, inside the first consumer's span and error
    # capture.  If enumeration itself is refused the second consumer
    # finds no paths, enumerates again and reports the same refusal.
    paths: ProgramPaths | None = None

    def global_termination(info: ProgramInfo) -> GlobalTerminationReport:
        nonlocal paths
        paths = program_paths(info)
        return check_global_termination(info, paths)

    run("local-termination", check_local_termination)
    run("global-termination", global_termination)
    run("delivery", check_delivery)
    run("duplication", lambda info: check_duplication(info, paths))
    return report
