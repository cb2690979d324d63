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
``tx``          a packet started transmission on a medium (mirrored
                by PacketTracer)
``rx``          a packet arrived at a node (mirrored by PacketTracer)
``up``          a packet was delivered locally (mirrored by PacketTracer)
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

The buffer is bounded: past ``max_events`` new records are counted in
:attr:`EventLog.dropped` instead of stored, so a packet storm cannot
eat the heap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, IO


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), default=str, sort_keys=False)


class EventLog:
    """A bounded, clock-aware list of :class:`EventRecord`."""

    def __init__(self, clock: Callable[[], float] | None = None,
                 max_events: int = 100_000):
        if clock is None:
            import time

            clock = time.perf_counter
        self.clock = clock
        self.max_events = max_events
        self.events: list[EventRecord] = []
        #: records discarded because the buffer was full
        self.dropped = 0
        self.enabled = True

    def emit(self, kind: str, node: str = "", **data) -> None:
        if not self.enabled:
            return
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(EventRecord(t=self.clock(), kind=kind,
                                       node=node, data=data))

    # -- queries ------------------------------------------------------------------

    def filter(self, kind: str | None = None, node: str | None = None,
               predicate: Callable[[EventRecord], bool] | None = None
               ) -> list[EventRecord]:
        out = self.events
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if node is not None:
            out = [e for e in out if e.node == node]
        if predicate is not None:
            out = [e for e in out if predicate(e)]
        return out

    def counts(self) -> dict[str, int]:
        """Events per kind (the log's own summary metric)."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    # -- serialisation ------------------------------------------------------------

    def to_jsonl(self, kind: str | None = None,
                 limit: int | None = None) -> str:
        events = self.filter(kind=kind)
        if limit is not None:
            events = events[-limit:]
        return "\n".join(e.to_json() for e in events)

    def dump(self, fp: IO[str], kind: str | None = None) -> int:
        """Write the log as JSON lines; returns the record count."""
        events = self.filter(kind=kind)
        for event in events:
            fp.write(event.to_json())
            fp.write("\n")
        return len(events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)
