"""Guaranteed packet delivery (paper §2.1).

Assuming a reliable underlying network and the global-termination result,
a program guarantees delivery if

1. it cannot terminate on an unhandled exception (every primitive that
   may raise, every ``raise``, and every partial operator is enclosed in
   a matching handler) — top-level ``val`` initialisers included: they
   run at install, and one that raises refuses the program;
2. every execution path forwards or delivers the packet — the program
   never "intentionally drops packets" (so any reachable ``drop`` call,
   and any path that completes without an emission, fails the check).

Both facts are read off one structural walk of each body
(:mod:`repro.analysis.effects`), conservatively (no path-feasibility
reasoning is needed for soundness: an infeasible non-delivering path
only makes the analysis stricter).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang.errors import VerificationError
from ..lang.typechecker import ProgramInfo
from .effects import EffectWalk


@dataclass
class DeliveryReport:
    channels_checked: int = 0
    exits_verified: int = 0


def check_delivery(info: ProgramInfo) -> DeliveryReport:
    """Raises :class:`VerificationError` unless the program's globals
    provably install and every channel provably delivers/forwards every
    packet on every path."""
    effects = EffectWalk(info)
    report = DeliveryReport()
    for val in info.program.vals:
        escapes = effects.of(val.value).escapes
        if escapes:
            raise VerificationError(
                f"val {val.name!r} (line {val.pos.line}) may raise "
                f"unhandled exception(s): {', '.join(sorted(escapes))}; "
                f"the program cannot install", val.pos,
                analysis="delivery")
    for decl in info.all_channels():
        report.channels_checked += 1

        body = effects.of(decl.body)
        escapes = body.escapes
        if decl.initstate is not None:
            escapes |= effects.of(decl.initstate).escapes
        if escapes:
            names = ", ".join(sorted(escapes))
            raise VerificationError(
                f"channel {decl.name!r} may terminate on unhandled "
                f"exception(s): {names}; delivery cannot be guaranteed",
                decl.pos, analysis="delivery")

        if body.drops:
            raise VerificationError(
                f"channel {decl.name!r} intentionally drops packets "
                f"(line {body.drops[0].pos.line}); delivery cannot be "
                f"guaranteed", decl.pos, analysis="delivery")

        if not body.exits:
            raise VerificationError(
                f"channel {decl.name!r} has an execution path that "
                f"neither forwards nor delivers the packet", decl.pos,
                analysis="delivery")
        report.exits_verified += 1
    return report
