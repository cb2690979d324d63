"""Command-line tooling for the PLAN-P toolchain."""

from __future__ import annotations

import argparse


def at_least(low: int):
    """An argparse ``type``: an integer no smaller than ``low``, so a
    count the command cannot honour fails at the command line (exit 2)
    instead of deep inside the run."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value

    return parse
