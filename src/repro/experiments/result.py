"""The unified experiment result: one shape for every experiment.

Every ``run_*`` entry point used to return its own dataclass with its
own field list; the harness (:mod:`repro.harness`) needs one record
shape it can hash, store and compare byte-for-byte.  This module
defines that shape:

* :class:`ExperimentResult` — ``name`` / ``params`` / ``seed`` /
  ``metrics`` / ``figures``, with ``to_json()`` / ``from_json()``
  producing canonical (sorted, compact) JSON;
* per-experiment subclasses (``AudioExperimentResult`` & co., defined
  next to their experiments) that add domain helpers
  (``dominant_quality_between``, ``balance_ratio`` …) over
  ``figures`` and rehydrate stored records into domain objects.

What ran is read from ``result.params[...]``, what was measured from
``result.figures[...]``; there is no flat-attribute surface.

Determinism is part of the contract: ``record()`` is byte-identical
for identical (code, params, seed), which is what lets the parallel
runner assert serial/parallel equivalence and lets the cache skip
re-runs.  Every figure is simulated, so it is a pure function of those
three; :func:`deterministic_metrics` strips the metrics that are not —
the ``global.`` process scope (shared across runs in one process,
reset in another) and the execution-strategy telemetry of the batch
tier and the event heap.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass, field
from typing import Any, ClassVar


def _is_batch_telemetry(key: str) -> bool:
    """True for tier-3 batching counters: how packets *grouped* into
    batches is an execution-strategy detail (it depends on the
    batch-size flag, not on what the experiment computed), so these
    keys stay out of the canonical record — that is what keeps records
    byte-identical with batching on vs off."""
    return (key.endswith(".fastpath_batches")
            or key.endswith(".batched_packets")
            or ".batch_size" in key)


def _is_heap_telemetry(key: str) -> bool:
    """True for the physical state of the event heap's lazy-deletion
    machinery (``heap_size`` / ``cancelled_pending``): it depends on
    the compaction threshold, not on what was simulated, and records
    are pinned without these keys."""
    return key.endswith((".heap_size", ".cancelled_pending"))


def deterministic_metrics(metrics: dict[str, Any]) -> dict[str, Any]:
    """The subset of a ``metrics_snapshot()`` that is a pure function
    of (code, params, seed): drops the process-wide ``global.`` scope
    (it accumulates across runs sharing a process) and the tier-3
    batch-grouping and event-heap telemetry."""
    return {key: value for key, value in sorted(metrics.items())
            if not key.startswith("global.")
            and not _is_batch_telemetry(key)
            and not _is_heap_telemetry(key)}


def jsonify(value: Any) -> Any:
    """Recursively convert a figures payload to plain JSON types.

    Dataclasses become dicts, enums their values, tuples/sets lists,
    non-string dict keys strings, and anything else falls back to
    ``str`` — deterministically, so equal payloads yield equal JSON.
    """
    if isinstance(value, enum.Enum):
        return jsonify(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonify(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonify(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class ExperimentResult:
    """One experiment run: what ran (``name``, ``params``, ``seed``),
    what it measured (``figures``), and how the network behaved while
    it did (``metrics``, a full ``metrics_snapshot()``)."""

    name: str = ""
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    metrics: dict[str, Any] = field(default_factory=dict)
    figures: dict[str, Any] = field(default_factory=dict)

    #: registry key of the experiment that produced this result
    _EXPERIMENT: ClassVar[str] = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self._EXPERIMENT

    # -- canonical serialization ------------------------------------------------

    @property
    def experiment(self) -> str:
        return self._EXPERIMENT or self.name

    def record(self) -> dict[str, Any]:
        """The canonical, deterministic form: byte-identical for equal
        (code, params, seed), whichever worker produced it."""
        return {
            "name": self.name,
            "experiment": self.experiment,
            "params": jsonify(self.params),
            "seed": self.seed,
            "metrics": deterministic_metrics(self.metrics),
            "figures": {key: jsonify(value)
                        for key, value in self.figures.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.record(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "ExperimentResult":
        """Rebuild a result from its stored form.  Subclasses rehydrate
        their domain objects (samples, rows) so the helper methods
        work on loaded results."""
        result = cls.__new__(cls)
        ExperimentResult.__init__(
            result, name=record.get("name", ""),
            params=dict(record.get("params", {})),
            seed=record.get("seed", 0),
            metrics=dict(record.get("metrics", {})),
            figures=dict(record.get("figures", {})))
        result._rehydrate()
        return result

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_record(json.loads(text))

    def _rehydrate(self) -> None:
        """Hook for subclasses: convert jsonified figures back to their
        in-memory types after :meth:`from_record`."""
