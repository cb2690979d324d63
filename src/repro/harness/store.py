"""The JSONL result store under ``results/``.

One line per completed scenario run:

.. code-block:: json

    {"scenario": "fig6/audio", "experiment": "audio", "seed": 7,
     "cache_key": "…", "record": {…}, "elapsed_s": 1.2}

``record`` is the canonical :meth:`ExperimentResult.record` — the
deterministic payload that serial and parallel runs must reproduce
byte-for-byte and that report generation reads.  ``elapsed_s`` is the
run's own wall time, the harness's only clock; it sits outside the
record so it never perturbs cache comparisons.

Appends are line-atomic (single ``write`` of one line, flushed), so a
killed sweep leaves a loadable store and the next run resumes from it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator


class ResultStore:
    """Append/load access to one ``results.jsonl`` file."""

    FILENAME = "results.jsonl"

    def __init__(self, root: str | Path = "results"):
        self.root = Path(root)
        self.path = self.root / self.FILENAME

    def append(self, line: dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        data = json.dumps(line, sort_keys=True, separators=(",", ":"))
        with self.path.open("a") as fp:
            fp.write(data + "\n")
            fp.flush()

    def lines(self) -> Iterator[dict[str, Any]]:
        if not self.path.exists():
            return
        with self.path.open() as fp:
            for raw in fp:
                raw = raw.strip()
                if raw:
                    yield json.loads(raw)

    def load(self) -> list[dict[str, Any]]:
        return list(self.lines())

    def by_cache_key(self) -> dict[str, dict[str, Any]]:
        """Latest line per cache key (later lines supersede earlier)."""
        out: dict[str, dict[str, Any]] = {}
        for line in self.lines():
            out[line["cache_key"]] = line
        return out

    def by_name(self) -> dict[str, dict[str, Any]]:
        """Latest line per scenario name."""
        out: dict[str, dict[str, Any]] = {}
        for line in self.lines():
            out[line["scenario"]] = line
        return out

    def __len__(self) -> int:
        return sum(1 for _ in self.lines())
