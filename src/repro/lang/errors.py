"""Error types for the PLAN-P front end.

Every front-end error carries a source position so that a rejected ASP can
be reported back to the user who attempted to download it (the paper's
"late checking" model: programs arrive as source and are verified at the
router before being installed).
"""

from __future__ import annotations

from typing import NamedTuple


class SourcePos(NamedTuple):
    """A position in PLAN-P source text (1-based line and column);
    positions order as (line, column)."""

    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class PlanPError(Exception):
    """Base class for every error raised by the PLAN-P toolchain."""

    def __init__(self, message: str, pos: SourcePos | None = None):
        self.message = message
        self.pos = pos or SourcePos()
        super().__init__(self._format())

    def _format(self) -> str:
        if self.pos.line:
            return f"{self.pos}: {self.message}"
        return self.message


class LexError(PlanPError):
    """Raised on malformed input at the character level."""


class ParseError(PlanPError):
    """Raised on malformed input at the syntax level."""


class TypeCheckError(PlanPError):
    """Raised when a program does not type check."""


class VerificationError(PlanPError):
    """Raised when a program fails one of the four safety analyses.

    The run-time system refuses to install programs that raise this;
    per the paper, privileged users could bypass it with authentication.
    """

    def __init__(self, message: str, pos: SourcePos | None = None,
                 analysis: str = ""):
        self.analysis = analysis
        super().__init__(message, pos)


class PlanPRuntimeError(PlanPError):
    """Raised by the interpreter or JIT-compiled code at packet time.

    PLAN-P programs may handle these with ``try ... handle``; an unhandled
    one is flagged by the delivery analysis at verification time.
    """

    def __init__(self, message: str, pos: SourcePos | None = None,
                 exception_name: str = "Error"):
        self.exception_name = exception_name
        super().__init__(message, pos)
