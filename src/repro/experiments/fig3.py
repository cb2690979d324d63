"""Figure 3: code-generation time for the five experiment ASPs.

The paper's table reports, per program, its size in lines and the time
the Tempo-generated JIT needs to produce machine code for it.  We report
the same rows for our two JIT backends (closure specialization and
Python-source generation), measured on the program actually shipped by
:mod:`repro.asps`.  The times are wall clock: the report prints them as
it measures them, and nothing stores or compares them.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from ..asps import (audio_client_asp, audio_router_asp, http_gateway_asp,
                    mpeg_client_asp, mpeg_monitor_asp)
from ..interp.context import RecordingContext
from ..jit.pipeline import count_source_lines, make_engine
from ..lang import parse, typecheck

#: name -> (source, paper lines, paper codegen ms), for side-by-side
#: reporting.  Paper values are from Figure 3.
PAPER_PROGRAMS: dict[str, tuple[str, int, float]] = {
    "Audio Broadcasting (router)": (audio_router_asp(), 68, 11.0),
    "Audio Broadcasting (client)": (audio_client_asp(), 28, 6.2),
    "Extensible Web Server": (
        http_gateway_asp("10.0.1.2", ["10.0.2.2", "10.0.3.2"]), 91, 15.3),
    "MPEG (monitor)": (mpeg_monitor_asp(), 161, 33.9),
    "MPEG (client)": (mpeg_client_asp(), 53, 6.1),
}

#: the JIT backends the table has a column for
JIT_BACKENDS = ("closure", "source")


@dataclass
class Fig3Row:
    name: str
    lines: int
    paper_lines: int
    paper_codegen_ms: float
    codegen_ms: dict[str, float]  # backend -> measured ms (median)


def _measure_codegen(source: str, backend: str, repeats: int) -> float:
    info = typecheck(parse(source))
    times = []
    for _ in range(repeats):
        ctx = RecordingContext()
        start = time.perf_counter()
        make_engine(info, backend, ctx)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def fig3_codegen_table(repeats: int = 5) -> list[Fig3Row]:
    """Measure the Figure 3 table for the shipped ASPs (median of
    ``repeats`` code generations per program and backend)."""
    rows = []
    for name, (source, paper_lines, paper_ms) in PAPER_PROGRAMS.items():
        measured = {backend: _measure_codegen(source, backend, repeats)
                    for backend in JIT_BACKENDS}
        rows.append(Fig3Row(name=name,
                            lines=count_source_lines(source),
                            paper_lines=paper_lines,
                            paper_codegen_ms=paper_ms,
                            codegen_ms=measured))
    return rows


def format_fig3_table(rows: list[Fig3Row]) -> str:
    backends = list(rows[0].codegen_ms) if rows else []
    header = (f"{'program':34s} {'lines':>5s} {'paper-lines':>11s} "
              f"{'paper-ms':>8s}"
              + "".join(f" {b + '-ms':>10s}" for b in backends))
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:34s} {row.lines:5d} {row.paper_lines:11d} "
            f"{row.paper_codegen_ms:8.1f}"
            + "".join(f" {row.codegen_ms[b]:10.2f}" for b in backends))
    return "\n".join(lines)
