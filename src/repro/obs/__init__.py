"""Unified observability: metrics registry and event log.

The paper's run-time system adapts on *locally measured* state (§3.1
link load); this package is the reproduction's single instrumentation
substrate for those measurements.  Two pieces:

* :class:`~repro.obs.metrics.MetricsRegistry` — named counters and
  histograms, plus zero-overhead adaptation of the existing stat
  dataclasses (``LinkStats``, ``NodeStats``, ``PlanPStats``, …) via
  snapshot-time callbacks;
* :class:`~repro.obs.events.EventLog` — a bounded JSON-lines stream of
  structured events (drops, faults, deploy verdicts, handler errors …).

Scopes: every :class:`~repro.net.topology.Network` owns an
:class:`Observability` whose event log is stamped with **simulated**
time, and the process-wide :data:`GLOBAL` scope holds the counters not
tied to one network — the program cache, interpreter invocations, fuzz
campaigns.  ``Network.metrics_snapshot()`` merges both into one flat
dict.  Nothing here reads a wall clock into a metric: wall time is
``python3 -m bench``'s to measure.

Cost discipline: per-packet hot paths never pay for observability they
did not opt into.  Existing counters stay plain ``int`` fields read at
snapshot time; packet-level ``rx``/``up``/``tx`` records are opt-in by
attaching a :class:`~repro.net.trace.PacketTracer`, which writes them
into the network's event log — the one event store; it keeps none of
its own — and reads its timeline back from there; only exceptional
paths (drops, faults, errors, deploy verdicts) always log.
"""

from __future__ import annotations

from typing import Callable

from .events import EventLog, EventRecord
from .metrics import Counter, Histogram, MetricsRegistry


class Observability:
    """One scope's metrics registry + event log, sharing a clock."""

    def __init__(self, clock: Callable[[], float] | None = None):
        self.metrics = MetricsRegistry()
        self.events = EventLog(clock=clock)

    def snapshot(self) -> dict[str, object]:
        snap = self.metrics.snapshot()
        snap["events.logged"] = len(self.events)
        snap["events.dropped"] = self.events.dropped
        return snap


#: The process-wide scope: program-cache, interpreter and fuzz-campaign
#: counters.  Its event log belongs to no simulation, so it falls back
#: to the event log's default clock.
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
    "reset_global",
]
