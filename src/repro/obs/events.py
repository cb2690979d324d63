"""The structured event log: one JSON-lines stream per scope.

Where :mod:`repro.obs.metrics` answers "how many", the event log
answers "what happened, in order": packet drops, injected faults,
deployment verdicts and swallowed handler errors all land here as one
timestamped record each.  A network's log is stamped with *simulated*
time (the log is simulator-clock-aware); a log no network has claimed
(the process-global one) falls back to ``time.perf_counter``.

Event kinds in use across the repo (free-form strings; these are the
conventions):

==============  =====================================================
``drop``        a packet was discarded (``reason`` says where and why)
``tx``          a packet started transmission on a medium (logged
                only while a PacketTracer taps the medium)
``rx``          a packet arrived at a node (logged only while a
                PacketTracer taps the node)
``up``          a packet was delivered locally (ditto)
``fault``       an injected failure or recovery (FaultController)
``deploy``      a deployment protocol milestone (push/install/reject)
``error``       an application handler error that was caught and counted
``overload``    an HTTP server shed or expired a request
``rollout``     a staged-rollout milestone: stage / canary / promote /
                force-promote / abort (LifecycleManager)
``quarantine``  a circuit-breaker transition on one node: trip /
                half-open / close (LifecycleManager)
``rollback``    a generation rollback: start / per-node / done
                (LifecycleManager)
==============  =====================================================

The buffer is bounded: past :data:`MAX_EVENTS` new records are counted
in :attr:`EventLog.dropped` instead of stored, so a packet storm cannot
eat the heap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: records one log holds; later ones are counted, not stored
MAX_EVENTS = 100_000


@dataclass(frozen=True)
class EventRecord:
    """One structured event: a timestamp, a kind, and open fields."""

    t: float
    kind: str
    node: str = ""
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {"t": round(self.t, 9), "kind": self.kind}
        if self.node:
            out["node"] = self.node
        out.update(self.data)
        return out


class EventLog:
    """A bounded, clock-aware list of :class:`EventRecord`."""

    def __init__(self, clock: Callable[[], float] | None = None):
        if clock is None:
            import time

            clock = time.perf_counter
        self.clock = clock
        self.events: list[EventRecord] = []
        #: records discarded because the buffer was full
        self.dropped = 0
        self.enabled = True

    def emit(self, kind: str, node: str = "", **data) -> None:
        if not self.enabled:
            return
        if len(self.events) >= MAX_EVENTS:
            self.dropped += 1
            return
        self.events.append(EventRecord(t=self.clock(), kind=kind,
                                       node=node, data=data))

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)
