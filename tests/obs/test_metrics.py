"""Metrics registry unit tests: instruments, callbacks, snapshots."""

from repro.obs import GLOBAL, Observability, reset_global
from repro.obs.metrics import (Counter, Histogram, MetricsRegistry,
                               _flatten)


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_histogram_summary(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 6.0):
            histogram.observe(value)
        assert histogram.summary() == {
            "count": 3, "sum": 9.0, "min": 1.0, "max": 6.0, "mean": 3.0}

    def test_empty_histogram_summary_is_zeroes(self):
        assert Histogram("h").summary() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("c") is registry.histogram("c")

    def test_snapshot_flattens_everything(self):
        registry = MetricsRegistry()
        registry.counter("packets").inc(4)
        registry.histogram("lat_ms").observe(5.0)
        registry.register("stats", lambda: {"sent": 1,
                                            "nested": {"lost": 2}})
        snap = registry.snapshot()
        assert snap["packets"] == 4
        assert snap["lat_ms.count"] == 1
        assert snap["lat_ms.mean"] == 5.0
        assert snap["stats.sent"] == 1
        assert snap["stats.nested.lost"] == 2

    def test_callback_runs_only_at_snapshot_time(self):
        registry = MetricsRegistry()
        calls = []
        registry.register("lazy", lambda: calls.append(1) or {"x": 1})
        assert calls == []
        registry.snapshot()
        registry.snapshot()
        assert len(calls) == 2

    def test_reregister_replaces(self):
        registry = MetricsRegistry()
        registry.register("s", lambda: {"v": 1})
        registry.register("s", lambda: {"v": 2})
        assert registry.snapshot() == {"s.v": 2}

    def test_reset_values_keeps_callbacks(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(10)
        registry.register("s", lambda: {"v": 5})
        registry.reset_values()
        snap = registry.snapshot()
        assert "n" not in snap          # instrument gone
        assert snap["s.v"] == 5          # callback survived

    def test_clear_removes_callbacks_too(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.register("s", lambda: 1)
        registry.clear()
        assert registry.snapshot() == {}

    def test_flatten_scalar_under_prefix(self):
        out = {}
        _flatten("top", 3, out)
        assert out == {"top": 3}


class TestObservabilityScope:
    def test_snapshot_includes_event_counters(self):
        obs = Observability(clock=lambda: 1.0)
        obs.events.emit("fault", detail="x")
        snap = obs.snapshot()
        assert snap["events.logged"] == 1
        assert snap["events.dropped"] == 0

    def test_reset_global_keeps_import_time_callbacks(self):
        # The program cache registers its stats callback at import time;
        # a reset must not orphan it (tests call reset_global freely).
        import repro.jit.pipeline  # noqa: F401  (triggers registration)

        reset_global()
        assert any(key.startswith("program_cache.")
                   for key in GLOBAL.snapshot())
