"""Deterministic discrete-event simulation engine.

All experiments run on this engine: time is simulated seconds, events
are callbacks ordered by a total **event key**, and every source of
randomness draws from seeded streams, so runs are exactly reproducible
— a substitute for the paper's LAN testbed that trades absolute timing
fidelity for determinism (see DESIGN.md §2 and §13).

The scheduling contract (DESIGN §13)
------------------------------------

Events are ordered by ``EventKey = (time, lp, lseq)``:

* ``time`` — absolute simulated seconds;
* ``lp`` — the id of the :class:`SchedulingContext` the event was
  scheduled under (contexts are minted in construction order, so ids
  are stable across runs);
* ``lseq`` — that context's monotone counter.

``Simulator.schedule`` / ``call_soon`` are the ways to enqueue work.
Each ``schedule`` call is attributed to a context: the one passed
explicitly, else the *ambient* context (the context of the event
currently being dispatched), else the simulator's root context.  Because
a context's counter is only ever advanced by the entity that owns it,
an entity's event keys are a pure function of (topology, seed) and of
its own traffic: adding unrelated traffic elsewhere in the network does
not move them.  That is why two cells of an experiment matrix that
differ in one workload compare (``web/*-open`` vs ``web/*-shed``), and
it is what ``tests/net/test_sim_contract.py`` checks directly; every
golden digest and ``bench/expected.json`` pin covers the keys, so
changing how they are drawn belongs to a re-pin PR.

Randomness follows the same discipline: :meth:`Simulator.entropy` and
:attr:`SchedulingContext.entropy` derive an independent seeded stream
per name, so an entity's draws do not depend on unrelated traffic.
``Simulator.rng`` remains the root stream for setup-time draws.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import Any, Callable

#: The total-order key events are sorted by; see the module docstring.
EventKey = tuple[float, int, int]

#: ``lp`` of the simulator's root context (what is scheduled with no
#: context of its own: setup, fault timelines); minted contexts count
#: up from 1.
ROOT_LP = 0


class SchedulingContext:
    """One scheduling domain: a node, a transmit queue, a periodic
    task, the controller.  Owns an ``lp`` id, a monotone ``lseq``
    counter, and a derived entropy stream.

    Contexts carry no simulator reference — they are pure identity.
    """

    __slots__ = ("name", "lp", "_lseq", "_entropy", "_seed")

    def __init__(self, name: str, lp: int, seed: Any = 0,
                 entropy: random.Random | None = None):
        self.name = name
        self.lp = lp
        self._lseq = 0
        self._seed = seed
        self._entropy = entropy

    def next_lseq(self) -> int:
        n = self._lseq
        self._lseq = n + 1
        return n

    @property
    def entropy(self) -> random.Random:
        """This context's private seeded stream (lazy).  Derived from
        ``(seed, name)``, so the draws do not depend on what any other
        entity drew."""
        if self._entropy is None:
            self._entropy = derive_rng(self._seed, self.name)
        return self._entropy

    def __repr__(self) -> str:
        return f"SchedulingContext({self.name!r}, lp={self.lp})"


def derive_rng(seed: Any, name: str) -> random.Random:
    """An independent deterministic stream for ``(seed, name)``.

    String seeding uses CPython's sha512 path, which is stable across
    processes (unlike ``hash``), so the harness's worker processes
    derive identical streams."""
    return random.Random(f"{seed}/{name}")


class RunawayError(RuntimeError):
    """``max_events`` ran out with events still due — the runaway guard
    of :meth:`Simulator.run`."""

    def __init__(self, max_events: float):
        super().__init__(
            f"simulation did not converge within {max_events} events — "
            f"possible packet storm")


class EventHandle:
    """One scheduled event — what to run, under which context, its key
    and the lazy-deletion flags — and the handle ``schedule`` returns
    for cancelling it.

    The heap holds ``(time, lp, lseq, handle)`` entries (see
    :data:`_Entry`), so scheduling allocates the entry tuple and this
    one object.  The handle keeps its own copy of the key rather than a
    reference to its entry: once popped, both are freed by reference
    counting (unless the caller kept the handle), never left for the
    cyclic collector.  Deliberately unordered: comparison never reaches
    it.
    """

    __slots__ = ("fn", "ctx", "time", "lp", "lseq", "_sim", "cancelled",
                 "done")

    def __init__(self, fn: Callable[[], None], ctx: SchedulingContext,
                 time: float, lp: int, lseq: int, sim: "Simulator"):
        self.fn = fn
        self.ctx = ctx
        self.time = time
        self.lp = lp
        self.lseq = lseq
        self._sim = sim
        #: flagged for lazy deletion
        self.cancelled = False
        #: popped from the queue (ran or was swept); cancelling is a no-op
        self.done = False

    def cancel(self) -> None:
        self._sim._cancel(self)

    @property
    def key(self) -> EventKey:
        return (self.time, self.lp, self.lseq)


#: One heap entry, ``(time, lp, lseq, handle)``.  ``heapq`` orders
#: entries by C tuple comparison; the leading event key is unique per
#: entry (a context never repeats an ``lseq``), so comparison always
#: stops before the handle, which therefore needs no ordering of its own.
_Entry = tuple[float, int, int, EventHandle]


#: Queues smaller than this are never compacted (the sweep would cost
#: more than the garbage it reclaims).
_COMPACT_MIN_QUEUE = 64


class Simulator:
    """An event loop over simulated time.

    Cancelled events are deleted lazily: cancelling only flags the entry,
    and the flagged entries are either skipped when popped or swept out
    wholesale once they outnumber the live ones (so long runs that cancel
    many timers — TCP retransmits, periodic tasks — don't accumulate
    garbage in the heap).  Live/cancelled counts are maintained
    incrementally, making :attr:`pending_events` O(1).
    """

    def __init__(self, *, seed: int = 0):
        self._queue: list[_Entry] = []
        self.now = 0.0
        self.seed = seed
        self.rng = random.Random(seed)
        self.events_processed = 0
        self._live = 0
        self._cancelled = 0
        self._microtasks: list[tuple[Callable[[], None],
                                     SchedulingContext]] = []
        self._in_event = False
        self._next_lp = ROOT_LP
        self.root = SchedulingContext("root", ROOT_LP, seed,
                                      entropy=self.rng)
        self._current: SchedulingContext = self.root
        self._entropies: dict[str, random.Random] = {}
        #: the event being dispatched (None outside dispatch)
        self._dispatching: EventHandle | None = None

    # -- the entry surface ---------------------------------------------------------

    def context(self, name: str) -> SchedulingContext:
        """Mint a new scheduling context.  Ids count up in construction
        order, which is what makes them stable across runs.  The id is
        folded into the context's name so every context gets a distinct
        entropy stream even when callers pass duplicate names."""
        self._next_lp += 1
        lp = self._next_lp
        return SchedulingContext(f"{name}#{lp}", lp, self.seed)

    def use_context(self, ctx: SchedulingContext) -> SchedulingContext:
        """Swap the ambient scheduling context; returns the previous one
        (restore it in a ``finally``).  ``Node.receive`` re-roots onto
        the receiving node's context here, so what a node schedules
        while handling a packet draws from the node's own counter, not
        from the counter of the transmit queue that delivered it."""
        prev = self._current
        self._current = ctx
        return prev

    @property
    def current_context(self) -> SchedulingContext:
        return self._current

    @property
    def current_event_key(self) -> EventKey | None:
        """The key of the event being dispatched (None outside
        dispatch), its microtasks included.  Observers record it to
        order what they saw: the scale experiment's delivery-stream
        hash, and the frozen ``bench/trace.py``.  Built on read, so an
        event nobody observes allocates no key tuple."""
        event = self._dispatching
        return None if event is None else event.key

    def entropy(self, name: str) -> random.Random:
        """A named derived random stream (memoized).  Entities use this
        instead of the shared :attr:`rng` so their draws are independent
        of what any other entity drew."""
        stream = self._entropies.get(name)
        if stream is None:
            stream = derive_rng(self.seed, name)
            self._entropies[name] = stream
        return stream

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` after the *current* event's callback returns, at
        the same simulated time, before the next event is popped.

        Microtasks are the batch-drain hook: a node can defer work
        enqueued during one event delivery to the end of that delivery
        (so several packets from one event coalesce) without scheduling
        new events — anything they schedule gets its keys in exactly
        the same order as inline execution, so records are the same
        with batching on or off.
        The ambient context at ``call_soon`` time is captured and
        restored around the microtask.  Outside an event callback
        ``fn`` runs immediately, so direct (non-simulated) calls stay
        synchronous.
        """
        if self._in_event:
            self._microtasks.append((fn, self._current))
        else:
            fn()

    def schedule(self, delay: float, fn: Callable[[], None], *,
                 context: SchedulingContext | None = None) -> EventHandle:
        """Run ``fn`` after ``delay`` simulated seconds.

        The event is attributed to ``context``, else to the ambient
        context (of the event being dispatched), else to the root
        context — see the module docstring for why attribution is part
        of the scheduling contract."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        ctx = context if context is not None else self._current
        time = self.now + delay
        lseq = ctx.next_lseq()
        event = EventHandle(fn, ctx, time, ctx.lp, lseq, self)
        heappush(self._queue, (time, ctx.lp, lseq, event))
        self._live += 1
        return event

    def at(self, when: float, fn: Callable[[], None], *,
           context: SchedulingContext | None = None) -> EventHandle:
        """Run ``fn`` at absolute simulated time ``when``."""
        return self.schedule(max(0.0, when - self.now), fn,
                             context=context)

    def post(self, time: float, fn: Callable[[], None], *,
             lp: int, lseq: int) -> EventHandle:
        """Enqueue an event with an **explicit** key instead of one
        drawn from a context.  Nothing in ``src`` calls it; it stays
        because the frozen ``bench/trace.py`` patches it by name
        (``_patches.set(Simulator, "post", …)``) and goes with the next
        benchmark PR.

        The callback runs under this simulator's root context.
        ``time`` must not lie in this simulator's past, and ``(time, lp,
        lseq)`` must not repeat the key of another pending event (keys
        are a total order).
        """
        if time < self.now:
            raise ValueError(
                f"post at {time} is in the past (now={self.now})")
        event = EventHandle(fn, self.root, time, lp, lseq, self)
        heappush(self._queue, (time, lp, lseq, event))
        self._live += 1
        return event

    # -- lazy deletion -----------------------------------------------------------

    def _cancel(self, event: EventHandle) -> None:
        if event.cancelled or event.done:
            return
        event.cancelled = True
        self._live -= 1
        self._cancelled += 1
        if (len(self._queue) >= _COMPACT_MIN_QUEUE
                and self._cancelled * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Sweep cancelled entries out of the heap and re-heapify, in
        place (:meth:`run` holds the list while events cancel)."""
        queue = self._queue
        for entry in queue:
            if entry[3].cancelled:
                entry[3].done = True
        queue[:] = [e for e in queue if not e[3].cancelled]
        heapify(queue)
        self._cancelled = 0

    # -- periodic work -------------------------------------------------------------

    def every(self, interval: float, fn: Callable[[], None],
              start: float | None = None,
              until: float | None = None) -> "PeriodicTask":
        """Run ``fn`` every ``interval`` seconds until cancelled."""
        return PeriodicTask(self, interval, fn, start=start, until=until)

    # -- the run loop ---------------------------------------------------------------

    def run(self, until: float | None = None, *,
            max_events: int | None = None) -> int:
        """Process events in key order; returns how many ran.

        One contract for every caller (experiments and
        :meth:`Network.run <repro.net.topology.Network.run>`):

        * ``until`` — process events with ``time <= until`` (inclusive);
          afterwards ``now`` is advanced to exactly ``until`` even if
          the queue drained earlier, so fixed-horizon experiments always
          end at the same clock reading.
        * ``max_events`` — runaway guard: raise :class:`RunawayError` if
          more than this many events are due within the bound.

        With no arguments the queue is drained completely.
        """
        processed = 0
        queue = self._queue
        while queue:
            event = queue[0][3]
            if event.cancelled:
                heappop(queue)
                event.done = True
                self._cancelled -= 1
                continue
            if until is not None and event.time > until:
                break
            if max_events is not None and processed >= max_events:
                raise RunawayError(max_events)
            heappop(queue)
            event.done = True
            self._live -= 1
            self.now = event.time
            self.events_processed += 1
            processed += 1
            self._dispatch(event)
        if until is not None and self.now < until:
            self.now = until
        return processed

    def _dispatch(self, event: EventHandle) -> None:
        """Run one event callback under its context, then drain its
        microtasks (including ones enqueued by other microtasks) under
        theirs."""
        tasks = self._microtasks
        self._in_event = True
        prev = self._current
        self._current = event.ctx
        self._dispatching = event
        try:
            event.fn()
            # The list may grow while it drains; iteration picks the
            # late arrivals up in order.
            for fn, ctx in tasks:
                self._current = ctx
                fn()
        finally:
            self._current = prev
            self._in_event = False
            self._dispatching = None
            if tasks:
                tasks.clear()

    # -- scheduler state -----------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Live (not-yet-run, not-cancelled) events — O(1)."""
        return self._live

    def stats(self) -> dict[str, float]:
        """Scheduler health counters for a metrics snapshot.

        ``heap_size`` and ``cancelled_pending`` reflect the lazy-deletion
        machinery's physical state, which depends on the compaction
        threshold — an implementation detail, so result records filter
        them (see :func:`repro.experiments.result
        .deterministic_metrics`)."""
        return {"now": self.now,
                "events_processed": self.events_processed,
                "pending_events": self._live,
                "cancelled_pending": self._cancelled,
                "heap_size": len(self._queue)}


class PeriodicTask:
    """A self-rescheduling event, e.g. an audio frame clock.

    Each task owns a scheduling context, so its ticks are attributed to
    it (not to whatever event happened to create it) and re-arming from
    inside a tick keeps drawing from the task's own counter."""

    def __init__(self, sim: Simulator, interval: float,
                 fn: Callable[[], None], start: float | None = None,
                 until: float | None = None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._sim = sim
        self._interval = interval
        self._fn = fn
        self._until = until
        self._stopped = False
        self._handle: EventHandle | None = None
        self._ctx = sim.context("task")
        first_delay = 0.0 if start is None else max(0.0, start - sim.now)
        self._handle = sim.schedule(first_delay, self._tick,
                                    context=self._ctx)

    def _tick(self) -> None:
        if self._stopped:
            return
        if self._until is not None and self._sim.now > self._until:
            return
        self._fn()
        if not self._stopped:
            self._handle = self._sim.schedule(self._interval, self._tick,
                                              context=self._ctx)

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()


class SerialResource:
    """A serial processing resource (e.g. a node's CPU).

    Work items run in submission order, each occupying the resource for
    its cost; with ``per_item_s == 0`` submission is immediate and
    synchronous.  Used to charge gateway nodes for per-packet ASP
    execution — the contention point of the paper's figure 8.
    """

    def __init__(self, sim: Simulator, per_item_s: float = 0.0):
        self._sim = sim
        self.per_item_s = per_item_s
        self._busy_until = 0.0
        self.items_processed = 0

    def submit(self, fn: Callable[[], None],
               cost_s: float | None = None) -> None:
        cost = self.per_item_s if cost_s is None else cost_s
        self.items_processed += 1
        if cost <= 0:
            fn()
            return
        start = max(self._sim.now, self._busy_until)
        self._busy_until = start + cost
        self._sim.at(self._busy_until, fn)

    @property
    def backlog_s(self) -> float:
        return max(0.0, self._busy_until - self._sim.now)
