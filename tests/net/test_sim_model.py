"""Stateful model test for the scheduler.

A hypothesis state machine drives ``schedule`` / ``post`` / ``cancel`` /
``call_soon`` / ``run(until=)`` and cancel storms that force
compaction, against a reference that keeps every event in a plain list
and scans it for the minimum key.  The two must agree on what fired, in
which order, under which ``current_event_key``, and on every public
counter after every rule — whatever the heap's entry layout is.
"""

from collections import defaultdict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.net.sim import ROOT_LP, Simulator

#: ``lp`` used for explicitly keyed ``post`` events; no context owns it,
#: so the machine's own counter keeps those keys unique.
POSTED_LP = 1000

_ticks = st.integers(0, 12)
_at = st.none() | st.integers(0, 10_000)
_actions = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("spawn"), _ticks),
    st.tuples(st.just("soon"), st.integers(1, 3)),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
)


class ModelEvent:
    def __init__(self, key, ctx_lp, action):
        self.key = key
        #: the context the callback runs under (what a spawned child's
        #: key is drawn from) — the key's own lp, except for posts
        self.ctx_lp = ctx_lp
        self.action = action
        self.state = "pending"  # -> "fired" | "cancelled"


class Reference:
    """The naive scheduler: a list, scanned for its minimum."""

    def __init__(self):
        self.now = 0.0
        self.events = []
        self.log = []
        self.lseq = defaultdict(int)
        self.fired = 0

    def draw(self, lp):
        n = self.lseq[lp]
        self.lseq[lp] = n + 1
        return n

    def add(self, key, ctx_lp, action):
        self.events.append(ModelEvent(key, ctx_lp, action))

    def cancel(self, index):
        event = self.events[index]
        if event.state == "pending":
            event.state = "cancelled"

    def count(self, state):
        return sum(1 for e in self.events if e.state == state)

    def _next(self):
        return min((e for e in self.events if e.state == "pending"),
                   key=lambda e: e.key, default=None)

    def _fire(self, event):
        self.now = event.key[0]
        event.state = "fired"
        self.fired += 1
        self.log.append(("event", event.key, self.now))
        kind = event.action[0]
        if kind == "spawn":
            lp = event.ctx_lp
            self.add((self.now + event.action[1] / 10.0, lp, self.draw(lp)),
                     lp, ("none",))
        elif kind == "soon":
            for depth in range(event.action[1], 0, -1):
                self.log.append(("micro", event.key, depth))
        elif kind == "cancel":
            self.cancel(event.action[1] % len(self.events))

    def run(self, until=None):
        while (event := self._next()) is not None:
            if until is not None and event.key[0] > until:
                break
            self._fire(event)
        if until is not None and self.now < until:
            self.now = until


class SchedulerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator(seed=3)
        self.contexts = [self.sim.root] + [self.sim.context(f"c{i}")
                                           for i in range(3)]
        self.model = Reference()
        #: handles[i] belongs to model.events[i] (spawned children are
        #: appended by both sides in firing order)
        self.handles = []
        self.log = []
        self.posted = 0

    # -- the callbacks the real simulator runs ------------------------------

    def _callback(self, action):
        def fire():
            sim = self.sim
            self.log.append(("event", sim.current_event_key, sim.now))
            kind = action[0]
            if kind == "spawn":
                self.handles.append(sim.schedule(
                    action[1] / 10.0, self._callback(("none",))))
            elif kind == "soon":
                self._soon(action[1])
            elif kind == "cancel":
                self.handles[action[1] % len(self.handles)].cancel()

        return fire

    def _soon(self, depth):
        def micro():
            self.log.append(("micro", self.sim.current_event_key, depth))
            if depth > 1:
                self._soon(depth - 1)  # grows the list mid-drain

        self.sim.call_soon(micro)

    def _schedule(self, ticks, ctx, action):
        delay = ticks / 10.0
        lp = ctx.lp if ctx is not None else ROOT_LP  # ambient = root
        key = (self.sim.now + delay, lp, self.model.draw(lp))
        self.model.add(key, lp, action)
        handle = self.sim.schedule(delay, self._callback(action),
                                   context=ctx)
        self.handles.append(handle)
        assert handle.key == key and handle.time == key[0]

    def _cancel(self, index):
        effective = self.model.events[index].state == "pending"
        self.model.cancel(index)
        self.handles[index].cancel()
        stats = self.sim.stats()
        if effective and stats["heap_size"] >= 64:
            # A cancel that flagged an entry leaves garbage a minority.
            assert stats["cancelled_pending"] * 2 <= stats["heap_size"]

    # -- rules ----------------------------------------------------------------

    @rule(ticks=_ticks, ctx=st.integers(-1, 3), action=_actions)
    def schedule(self, ticks, ctx, action):
        self._schedule(ticks, None if ctx < 0 else self.contexts[ctx],
                       action)

    @rule(ticks=_ticks, action=_actions)
    def post(self, ticks, action):
        key = (self.sim.now + ticks / 10.0, POSTED_LP, self.posted)
        self.posted += 1
        self.model.add(key, ROOT_LP, action)
        handle = self.sim.post(key[0], self._callback(action),
                               lp=POSTED_LP, lseq=key[2])
        self.handles.append(handle)
        assert handle.key == key

    @precondition(lambda self: self.handles)
    @rule(index=st.integers(0, 10_000))
    def cancel(self, index):
        self._cancel(index % len(self.handles))

    @rule(ctx=st.integers(0, 3), keep=st.integers(0, 5))
    def cancel_storm(self, ctx, keep):
        # Enough far-future garbage to cross the compaction floor and
        # outnumber the live entries: the sweep must run, and must not
        # disturb anything the model still expects to fire.
        first = len(self.handles)
        size = 70 + 2 * self.sim.pending_events
        for i in range(size):
            self._schedule(100 + i, self.contexts[ctx], ("none",))
        before = self.sim.stats()["heap_size"]
        for index in range(first, first + size - keep):
            self._cancel(index)
        assert self.sim.stats()["heap_size"] < before

    @rule()
    def call_soon_outside_an_event(self):
        ran = []
        self.sim.call_soon(lambda: ran.append(self.sim.current_event_key))
        assert ran == [None]  # immediate, and not inside a dispatch

    def _pick(self, at):
        """The handle a rule's ``at`` draw names, if it names one — so
        bounds land *exactly* on an event's time, where inclusive and
        exclusive differ."""
        if at is None or not self.handles:
            return None
        return self.handles[at % len(self.handles)]

    @rule(ticks=st.integers(0, 30), at=_at)
    def run_until(self, ticks, at):
        until = self.sim.now + ticks / 10.0
        if (handle := self._pick(at)) is not None:
            until = max(self.sim.now, handle.time)  # inclusive bound
        before = self.model.fired
        self.model.run(until=until)
        assert self.sim.run(until=until) == self.model.fired - before
        assert self.sim.now == until

    # -- what must hold after every rule --------------------------------------

    @invariant()
    def agrees_with_the_model(self):
        sim, model = self.sim, self.model
        assert self.log == model.log  # (kind, firing key, now | depth)
        assert sim.current_event_key is None
        live = model.count("pending")
        stats = sim.stats()
        assert sim.pending_events == stats["pending_events"] == live
        assert stats["events_processed"] == model.fired
        assert stats["now"] == sim.now == model.now
        assert 0 <= stats["cancelled_pending"] <= model.count("cancelled")
        assert stats["heap_size"] == live + stats["cancelled_pending"]
        for handle, event in zip(self.handles, model.events, strict=True):
            assert handle.key == event.key
            assert handle.cancelled == (event.state == "cancelled")

    def teardown(self):
        self.model.run()
        self.sim.run()
        self.agrees_with_the_model()
        assert self.sim.pending_events == 0
        # Every handle now names a fired or a swept event: cancelling
        # it is a no-op.
        before = self.sim.stats()
        for handle in self.handles:
            was = handle.cancelled
            handle.cancel()
            assert handle.cancelled == was
        assert self.sim.stats() == before


SchedulerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestSchedulerModel = SchedulerMachine.TestCase
