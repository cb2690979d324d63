"""Event log unit tests: emission, clocking, bounds, serialisation."""

import json
from collections import Counter

from repro.obs.events import MAX_EVENTS, EventLog, EventRecord


def sim_clocked(start: float = 0.0) -> tuple[EventLog, list[float]]:
    """An EventLog driven by a fake simulated clock we can advance."""
    now = [start]
    return EventLog(clock=lambda: now[0]), now


class TestEmission:
    def test_records_carry_clock_time_and_fields(self):
        log, now = sim_clocked()
        now[0] = 1.25
        log.emit("drop", node="r1", reason="queue", site="a-r1")
        (event,) = log.events
        assert event.t == 1.25
        assert event.kind == "drop"
        assert event.node == "r1"
        assert event.data == {"reason": "queue", "site": "a-r1"}

    def test_disabled_log_records_nothing(self):
        log, _now = sim_clocked()
        log.enabled = False
        log.emit("fault")
        assert len(log) == 0 and log.dropped == 0

    def test_bounded_buffer_counts_overflow(self):
        log = EventLog(clock=lambda: 0.0)
        for i in range(MAX_EVENTS + 2):
            log.emit("send", uid=i)
        assert len(log) == MAX_EVENTS
        assert log.dropped == 2
        # The oldest events are the ones kept (head of the stream).
        assert log.events[-1].data["uid"] == MAX_EVENTS - 1

    def test_clear_resets_buffer_and_dropped(self):
        log = EventLog(clock=lambda: 0.0)
        for _ in range(MAX_EVENTS + 1):
            log.emit("a")
        assert log.dropped == 1
        log.clear()
        assert len(log) == 0 and log.dropped == 0


class TestQueries:
    def test_filter_by_kind(self):
        """Records keep emission order, each stamped with its kind,
        node and the clock at emission."""
        log, now = sim_clocked()
        log.emit("drop", node="r1", reason="queue")
        now[0] = 2.0
        log.emit("drop", node="r2", reason="ttl")
        log.emit("fault", detail="link down")
        assert [(e.kind, e.node, e.t) for e in log.events] == [
            ("drop", "r1", 0.0), ("drop", "r2", 2.0), ("fault", "", 2.0)]

    def test_counts_by_kind(self):
        """The log keeps every record of every kind."""
        log, _now = sim_clocked()
        log.emit("drop")
        log.emit("drop")
        log.emit("jit")
        assert Counter(e.kind for e in log.events) == {"drop": 2, "jit": 1}


class TestSerialisation:
    def test_record_to_dict_merges_data(self):
        record = EventRecord(t=0.5, kind="deploy", node="mgr",
                             data={"action": "push"})
        assert record.to_dict() == {"t": 0.5, "kind": "deploy",
                                    "node": "mgr", "action": "push"}

    def test_to_dict_omits_empty_node(self):
        record = EventRecord(t=0.0, kind="jit")
        assert "node" not in record.to_dict()

    @staticmethod
    def jsonl(log):
        """The log as ``obsdump --events`` prints it."""
        return "".join(json.dumps(e.to_dict(), default=str) + "\n"
                       for e in log.events)

    def test_jsonl_round_trips(self):
        log, _now = sim_clocked()
        log.emit("drop", node="r1", reason="queue")
        log.emit("fault", detail="x")
        parsed = [json.loads(line) for line in self.jsonl(log).splitlines()]
        assert [p["kind"] for p in parsed] == ["drop", "fault"]
        assert parsed[0]["reason"] == "queue"

    def test_dump_writes_jsonl_and_returns_count(self):
        """One line per record, whatever the payload holds."""
        log, _now = sim_clocked()
        log.emit("a", blob=b"\n", obj=object())
        log.emit("b")
        assert len(self.jsonl(log).splitlines()) == 2
