"""Unified observability: metrics registry, event log, profiling spans.

The paper's run-time system adapts on *locally measured* state (§3.1
link load, §5 JIT timings); this package is the reproduction's single
instrumentation substrate for those measurements.  Three pieces:

* :class:`~repro.obs.metrics.MetricsRegistry` — named counters and
  histograms, plus zero-overhead adaptation of the existing stat
  dataclasses (``LinkStats``, ``NodeStats``, ``PlanPStats``, …) via
  snapshot-time callbacks;
* :class:`~repro.obs.events.EventLog` — a bounded JSON-lines stream of
  structured SEND / DROP / FAULT / DEPLOY / JIT / ERROR events;
* :class:`~repro.obs.spans.Timer` — span-style profiling of real work
  (JIT pipeline stages, verifier passes, ASP packet processing).

Scopes: every :class:`~repro.net.topology.Network` owns an
:class:`Observability` whose event log is stamped with **simulated**
time, and the process-wide :data:`GLOBAL` scope (wall-clock) holds
whatever is not tied to one network — the JIT pipeline, the program
cache, the engine microbenchmarks.  ``Network.metrics_snapshot()``
merges both into one flat dict.

Cost discipline: per-packet hot paths never pay for observability they
did not opt into.  Existing counters stay plain ``int`` fields read at
snapshot time; packet-level ``rx``/``up``/``send`` event mirroring is
opt-in via :class:`~repro.net.trace.PacketTracer`; only exceptional
paths (drops, faults, errors, deploy verdicts) always log.
"""

from __future__ import annotations

from typing import Callable

from .events import EventLog, EventRecord
from .metrics import Counter, Histogram, MetricsRegistry
from .spans import Timer, span


class Observability:
    """One scope's metrics registry + event log, sharing a clock."""

    def __init__(self, clock: Callable[[], float] | None = None):
        self.metrics = MetricsRegistry()
        self.events = EventLog(clock=clock)

    def span(self, name: str) -> Timer:
        return self.metrics.span(name)

    def snapshot(self) -> dict[str, object]:
        snap = self.metrics.snapshot()
        snap["events.logged"] = len(self.events)
        snap["events.dropped"] = self.events.dropped
        return snap


#: The process-wide scope: JIT pipeline stages, verifier passes, the
#: program cache, microbenchmarks.  Wall-clock timestamps.
GLOBAL = Observability()


def reset_global() -> None:
    """Fresh process-wide instruments (test isolation).  Registered
    stat-holder callbacks survive — they adapt module-level objects
    (the program cache) that outlive any reset."""
    GLOBAL.metrics.reset_values()
    GLOBAL.events.clear()


__all__ = [
    "Counter",
    "EventLog",
    "EventRecord",
    "GLOBAL",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Timer",
    "reset_global",
    "span",
]
