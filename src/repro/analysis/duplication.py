"""Safe packet duplication (paper §2.1).

The property: packet duplication is at most *linear* — no program may
amplify one packet into exponentially many.  Following the paper, the
check is that "for all execution paths there exists at most one OnRemote
or OnNeighbor statement whose channel argument might create copies",
where "might create copies" is the least fix-point of:

    mult(c)  =  ∃ path of c with ≥ 2 emissions
             ∨  ∃ path of c emitting to some c' with mult(c')

The fix-point assigns one boolean per channel per iteration and so
converges within |channels| iterations (the paper quotes the 2^c bound of
the naive schedule).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.errors import VerificationError
from ..lang.typechecker import ProgramInfo
from .paths import PathSummary, ProgramPaths, program_paths


@dataclass
class DuplicationReport:
    """Outcome of the analysis (on success)."""

    multiplying_channels: set[str] = field(default_factory=set)
    fixpoint_iterations: int = 0
    max_emissions_per_path: int = 0


def check_duplication(info: ProgramInfo,
                      paths: ProgramPaths | None = None) -> DuplicationReport:
    """Raises :class:`VerificationError` if duplication may be
    exponential; otherwise returns which channels multiply packets.
    ``paths`` is ``program_paths(info)`` when the caller already has it."""
    if paths is None:
        paths = program_paths(info)
    # Overloads of one name are one channel here.
    paths_of: dict[str, list[PathSummary]] = {
        name: [] for name in info.channels}
    for (name, _), summaries in paths.items():
        paths_of[name].extend(summaries)

    # Least fix-point of mult().
    mult: dict[str, bool] = {name: False for name in info.channels}
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = False
        for name, paths in paths_of.items():
            if mult[name]:
                continue
            for path in paths:
                many = len(path.emissions) >= 2
                feeds_mult = any(mult.get(e.target, False)
                                 for e in path.emissions)
                if many or feeds_mult:
                    mult[name] = True
                    changed = True
                    break

    # The safety check proper.
    max_emissions = 0
    for name, paths in paths_of.items():
        for path in paths:
            max_emissions = max(max_emissions, len(path.emissions))
            to_multiplying = [e for e in path.emissions
                              if mult.get(e.target, False)]
            if len(to_multiplying) > 1:
                lines = ", ".join(str(e.line) for e in to_multiplying)
                raise VerificationError(
                    f"channel {name!r} has an execution path with "
                    f"{len(to_multiplying)} emissions (lines {lines}) to "
                    f"channels that may themselves create copies: packet "
                    f"duplication could be exponential",
                    analysis="duplication")

    return DuplicationReport(
        multiplying_channels={n for n, m in mult.items() if m},
        fixpoint_iterations=iterations,
        max_emissions_per_path=max_emissions)
