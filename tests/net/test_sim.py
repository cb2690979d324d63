"""Discrete-event engine tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.sim import PeriodicTask, SerialResource, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_run_until_stops_and_pins_clock(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(10.0, lambda: log.append(10))
        sim.run(until=5.0)
        assert log == [1]
        assert sim.now == 5.0
        sim.run(until=20.0)
        assert log == [1, 10]

    def test_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: sim.at(3.0, lambda: seen.append(
            sim.now)))
        sim.run()
        assert seen == [3.0]

    def test_cancel(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, lambda: log.append("x"))
        handle.cancel()
        sim.run()
        assert log == []
        assert handle.cancelled

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule(1.0, lambda: log.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert log == ["first", "second"]
        assert sim.now == 2.0

    def test_rng_seeded(self):
        a = Simulator(seed=5).rng.random()
        b = Simulator(seed=5).rng.random()
        assert a == b

    def test_max_events_guards_runaway(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(RuntimeError, match="converge"):
            sim.run(max_events=100)


class Boom(Exception):
    pass


class TestRaisingEvent:
    """``run`` sets the dispatch state per event and restores it once,
    around the whole loop; an exception out of an event callback or a
    microtask must leave the caller's state behind all the same."""

    @pytest.mark.parametrize("raiser", ["event", "microtask"])
    def test_state_restored_and_the_next_run_goes_on(self, raiser):
        sim = Simulator()
        ctx = sim.context("boom")
        caller = sim._current
        log = []

        def boom():
            log.append("boom")
            sim.call_soon(lambda: log.append("left behind"))
            raise Boom

        def event():
            if raiser == "event":
                boom()
            else:
                sim.call_soon(boom)

        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, event, context=ctx)
        sim.schedule(2.0, lambda: log.append("c"), context=ctx)
        sim.schedule(3.0, lambda: log.append("d"))
        with pytest.raises(Boom):
            sim.run()
        assert log == ["a", "boom"]
        assert sim.now == 2.0
        assert sim._current is caller
        assert sim.current_event_key is None
        assert sim._microtasks == []
        # outside an event, call_soon runs at once again
        sim.call_soon(lambda: log.append("sync"))
        assert sim.run() == 2
        assert log == ["a", "boom", "sync", "c", "d"]
        assert sim._current is caller
        assert sim.current_event_key is None


class TestLazyDeletion:
    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None)
                   for i in range(10)]
        assert sim.pending_events == 10
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending_events == 6
        sim.run(until=6.5)  # runs events at t=5..6 (0-3 cancelled)
        assert sim.pending_events == 4

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 0

    def test_cancel_after_run_is_noop(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, lambda: log.append("x"))
        sim.run()
        handle.cancel()
        assert log == ["x"]
        assert not handle.cancelled
        assert sim.pending_events == 0

    def test_compaction_sweeps_majority_cancelled_queue(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None)
                   for i in range(100)]
        for handle in handles[:60]:
            handle.cancel()
        # The sweep triggered once cancelled entries outnumbered live
        # ones, physically shrinking the heap (it fired at the 51st
        # cancel, so at most the post-sweep stragglers remain flagged).
        assert sim.pending_events == 40
        assert sim.stats()["heap_size"] < 60
        sim.run()
        assert sim.events_processed == 40
        assert sim.pending_events == 0

    def test_small_queues_skip_compaction(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None)
                   for i in range(10)]
        for handle in handles[:9]:
            handle.cancel()
        # Below the compaction floor the garbage just sits in the heap…
        assert sim.stats()["heap_size"] == 10
        assert sim.pending_events == 1
        # …and is skipped, not executed, when popped.
        sim.run()
        assert sim.events_processed == 1

    def test_cancelled_events_never_fire_after_compaction(self):
        sim = Simulator()
        log = []
        handles = [sim.schedule(float(i + 1), lambda i=i: log.append(i))
                   for i in range(80)]
        for handle in handles[::2]:
            handle.cancel()
        sim.run()
        assert log == list(range(1, 80, 2))


class TestPeriodicTask:
    def test_fires_repeatedly(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        assert ticks == [0.0, 1.0, 2.0, 3.0]

    def test_start_offset(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), start=2.0)
        sim.run(until=4.5)
        assert ticks == [2.0, 3.0, 4.0]

    def test_until_bound(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), until=2.0)
        sim.run(until=10.0)
        assert ticks == [0.0, 1.0, 2.0]

    def test_stop(self):
        sim = Simulator()
        ticks = []
        task = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(1.5, task.stop)
        sim.run(until=5.0)
        assert ticks == [0.0, 1.0]

    def test_zero_interval_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTask(Simulator(), 0.0, lambda: None)


def serial(sim, per_item_s):
    cpu = SerialResource(sim)
    cpu.per_item_s = per_item_s
    return cpu


class TestSerialResource:
    def test_zero_cost_is_synchronous(self):
        sim = Simulator()
        cpu = SerialResource(sim)
        log = []
        cpu.submit(lambda: log.append(sim.now))
        assert log == [0.0]

    def test_items_serialize(self):
        sim = Simulator()
        cpu = serial(sim, 1.0)
        done = []
        cpu.submit(lambda: done.append(sim.now))
        cpu.submit(lambda: done.append(sim.now))
        cpu.submit(lambda: done.append(sim.now))
        sim.run()
        assert done == [1.0, 2.0, 3.0]

    def test_backlog_reported(self):
        """Work submitted at t=1 behind two queued 2 s items waits out
        their backlog and finishes at 4 + 2."""
        sim = Simulator()
        cpu = serial(sim, 2.0)
        done = []
        cpu.submit(lambda: None)
        cpu.submit(lambda: None)
        sim.schedule(1.0, lambda: cpu.submit(lambda: done.append(sim.now)))
        sim.run()
        assert done == [6.0]

    def test_idle_gap_resets(self):
        sim = Simulator()
        cpu = serial(sim, 1.0)
        done = []
        cpu.submit(lambda: done.append(sim.now))
        sim.schedule(10.0, lambda: cpu.submit(
            lambda: done.append(sim.now)))
        sim.run()
        assert done == [1.0, 11.0]


# -- scheduler bookkeeping invariants -----------------------------------------
#
# The lazy-deletion scheme keeps three facts in sync: the O(1)
# ``pending_events`` counter, the cancelled-entry counter that triggers
# compaction, and the heap itself.  These properties drive random
# interleavings of schedule / cancel / run (including cancelling
# already-run and already-cancelled events, which must be no-ops) and
# check ``stats()`` against the test's own count of live events after
# every operation — through the public counters only, so the heap's
# entry layout stays private to the simulator.

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 30)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("run"), st.integers(0, 40)),
    ),
    min_size=1, max_size=80)


def _check_counters(sim, live):
    stats = sim.stats()
    assert sim.pending_events == stats["pending_events"] == live
    assert stats["cancelled_pending"] >= 0
    assert stats["heap_size"] == live + stats["cancelled_pending"]


class TestSchedulerInvariants:
    @settings(max_examples=200, deadline=None)
    @given(ops=_ops)
    def test_counters_match_heap_under_interleaving(self, ops):
        sim = Simulator()
        handles = []
        live = set()  # indices scheduled, not yet run, not cancelled
        for op, arg in ops:
            if op == "schedule":
                i = len(handles)
                live.add(i)
                handles.append(sim.schedule(
                    arg / 10.0, lambda i=i: live.remove(i)))
            elif op == "cancel" and handles:
                # May hit pending, already-cancelled, or already-run
                # events — the latter two must be no-ops.
                i = arg % len(handles)
                handles[i].cancel()
                assert handles[i].cancelled or i not in live
                live.discard(i)
            elif op == "run":
                sim.run(until=sim.now + arg / 10.0)
            _check_counters(sim, len(live))
        sim.run()
        _check_counters(sim, 0)
        assert not live

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(64, 120), seed=st.integers(0, 2**16))
    def test_compaction_preserves_order_and_counts(self, n, seed):
        sim = Simulator()
        ran = []
        handles = [sim.schedule(i / 10.0, lambda i=i: ran.append(i))
                   for i in range(n)]
        rng = random.Random(seed)
        victims = rng.sample(range(n), int(n * 0.8))
        for done, i in enumerate(victims, start=1):
            handles[i].cancel()  # past n/2 cancels this compacts
            _check_counters(sim, n - done)
            stats = sim.stats()
            if stats["heap_size"] >= 64:  # garbage stays a minority
                assert stats["cancelled_pending"] * 2 <= stats["heap_size"]
        assert sim.stats()["heap_size"] < n  # a sweep did happen
        sim.run()
        survivors = sorted(set(range(n)) - set(victims))
        assert ran == survivors  # order survives the re-heapify
        _check_counters(sim, 0)

    def test_cancel_after_run_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        before = sim.stats()
        handle.cancel()
        handle.cancel()
        assert sim.stats() == before
        assert not handle.cancelled  # it ran; it was never cancelled

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.stats()["cancelled_pending"] == 1
        assert sim.pending_events == 0

    def test_stats_shape(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        stats = sim.stats()
        assert stats == {"now": 0.0, "events_processed": 0,
                         "pending_events": 1, "cancelled_pending": 1,
                         "heap_size": 2}
