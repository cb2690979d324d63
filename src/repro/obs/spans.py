"""Span-style profiling hooks.

A :class:`Timer` is a context manager that measures wall-clock elapsed
time (``time.perf_counter``) and reports it — into a histogram, a
callback, or just its own ``elapsed_ms`` attribute.  It replaces the
``start = perf_counter(); ...; elapsed = perf_counter() - start`` pairs
that were scattered through the JIT pipeline, the verifier and the
experiments: every timing now lands in a named histogram a snapshot
can read back.

Spans measure *real* time (how long the Python process worked), unlike
the event log, which is stamped with *simulated* time; the two clocks
answer different questions and are deliberately kept apart.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .metrics import Histogram


class Timer:
    """Times a ``with`` block; observes elapsed milliseconds on exit.

    ``observer`` is anything with an ``observe(ms)`` method (a
    :class:`~repro.obs.metrics.Histogram`) or ``None`` for a bare
    stopwatch.  The elapsed time stays readable after the block via
    :attr:`elapsed_s` / :attr:`elapsed_ms`, so call sites that need the
    measurement (``LoadedProgram.codegen_ms``, benchmark loops) read it
    instead of re-timing.
    """

    __slots__ = ("observer", "on_exit", "_start", "elapsed_s")

    def __init__(self, observer: "Histogram | None" = None,
                 on_exit: Callable[[float], None] | None = None):
        self.observer = observer
        self.on_exit = on_exit
        self._start = 0.0
        self.elapsed_s = 0.0

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_s * 1000.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_s = time.perf_counter() - self._start
        if self.observer is not None:
            self.observer.observe(self.elapsed_ms)
        if self.on_exit is not None:
            self.on_exit(self.elapsed_s)


def span(name: str, registry=None) -> Timer:
    """A timing span recording into ``registry.histogram(name)``.

    Defaults to the process-wide registry (:data:`repro.obs.GLOBAL`),
    which is where install-time pipeline stages belong — they are
    wall-clock work, not simulated time.
    """
    if registry is None:
        from . import GLOBAL

        registry = GLOBAL.metrics
    return registry.histogram(name).time()
