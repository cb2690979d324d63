"""The metrics substrate: named counters and histograms.

One :class:`MetricsRegistry` holds every instrument of one scope — a
:class:`~repro.net.topology.Network` owns one for everything measured
against the simulator clock, and :data:`repro.obs.GLOBAL` holds the
process-wide instruments (JIT pipeline timings, the program cache).

Two registration styles coexist:

* **Instruments** (``counter`` / ``histogram``) are created
  once and updated on the hot path.  ``Counter.inc`` is a single integer
  add, so counting on a per-packet path is safe.
* **Callbacks** (``register``) adapt the repo's existing stat holders —
  the ``LinkStats`` / ``NodeStats`` / ``PlanPStats`` / ``CacheStats``
  dataclasses — without touching their per-packet code at all: the
  callable is evaluated only when a snapshot is taken, so components
  keep their plain ``int`` fields and pay nothing per event.

``snapshot()`` flattens everything into one ``{dotted.name: value}``
dict (histograms expand to ``name.count`` / ``name.sum`` / ``name.min``
/ ``name.max`` / ``name.mean``), ready for JSON dumps and diffing
across runs.
"""

from __future__ import annotations

from typing import Callable

from .spans import Timer


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A summary of observed values (count / sum / min / max / mean).

    Duration histograms record milliseconds by convention and carry an
    ``_ms`` suffix in their name; :meth:`time` returns a
    :class:`~repro.obs.spans.Timer` that observes its elapsed
    milliseconds on exit — the span-style profiling hook.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def time(self) -> Timer:
        """A context manager timing a span into this histogram (ms)."""
        return Timer(self)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {"count": self.count, "sum": self.total, "min": self.min,
                "max": self.max, "mean": self.mean}

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


def _flatten(prefix: str, value: object, out: dict[str, object]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    else:
        out[prefix] = value


class MetricsRegistry:
    """All instruments and stat-holder callbacks of one scope."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._callbacks: dict[str, Callable[[], object]] = {}

    # -- instruments (get-or-create, so call sites need no setup) -----------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def span(self, name: str) -> Timer:
        """Shorthand: a timing span into ``histogram(name)``."""
        return self.histogram(name).time()

    # -- stat-holder adaptation ---------------------------------------------------

    def register(self, name: str, fn: Callable[[], object]) -> None:
        """Expose an existing stat holder under ``name``.

        ``fn`` runs only at snapshot time and may return a scalar or a
        (nested) dict, which is flattened under the ``name.`` prefix —
        so a component's counters stay plain fields with zero hot-path
        cost.  Re-registering a name replaces the previous callback.
        """
        self._callbacks[name] = fn

    def has(self, name: str) -> bool:
        """Whether a stat-holder callback is registered under ``name``."""
        return name in self._callbacks

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Everything, flattened to ``{dotted.name: scalar}``."""
        out: dict[str, object] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, histogram in self._histograms.items():
            _flatten(name, histogram.summary(), out)
        for name, fn in self._callbacks.items():
            _flatten(name, fn(), out)
        return out

    def clear(self) -> None:
        self._counters.clear()
        self._histograms.clear()
        self._callbacks.clear()

    def reset_values(self) -> None:
        """Zero every instrument, keeping registered callbacks (which
        adapt live stat holders and stay valid across resets)."""
        self._counters.clear()
        self._histograms.clear()
