"""Synthetic web trace generation and replay order.

Substitutes the paper's replayed IRISA trace of 80,000 accesses (see
DESIGN.md §2): file popularity is Zipf-distributed and sizes are
lognormal, the standard findings for 1990s web workloads.  Generation is
fully deterministic from the seed.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class TraceEntry:
    path: str
    size: int


@dataclass(frozen=True)
class TimedRequest:
    """One open-loop arrival: fetch ``path`` at absolute time ``at``."""

    at: float
    path: str


@dataclass
class Trace:
    """A reusable request sequence over a fixed file population."""

    entries: list[TraceEntry]
    sizes: dict[str, int]

    def request_stream(self, start: int = 0):
        """An infinite, wrapping iterator over the trace (clients issue
        requests continuously in the paper's measurement)."""
        i = start
        n = len(self.entries)
        while True:
            yield self.entries[i % n]
            i += 1


#: Zipf shape of document popularity (numpy's parameter, must be > 1):
#: the law both the closed-loop trace and the open-loop crowd draw from
ZIPF_A = 1.3
#: log-normal document sizes: median bytes and log-space sigma
MEDIAN_SIZE = 4096
SIZE_SIGMA = 1.0
#: popularity rank of the document a flash crowd collapses onto
HOT_RANK = 0
#: documents in the catalogue, and the clip on their sizes in bytes
N_FILES = 1000
MIN_SIZE = 128
MAX_SIZE = 262_144
#: the open-loop crowd's day: rate swing around the base, and its
#: length in seconds (compressed to simulation scale)
DIURNAL_AMPLITUDE = 0.3
DIURNAL_PERIOD_S = 8.0


def generate_trace(n_requests: int = 80_000, *, seed: int = 0) -> Trace:
    """Build a trace of ``n_requests`` accesses to :data:`N_FILES`
    documents.

    Document ranks beyond ``N_FILES`` wrap around, keeping the
    catalogue finite.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    file_sizes = np.exp(rng.normal(np.log(MEDIAN_SIZE), SIZE_SIGMA,
                                   size=N_FILES))
    file_sizes = np.clip(file_sizes, MIN_SIZE, MAX_SIZE).astype(int)
    sizes = {f"/doc{i:05d}.html": int(file_sizes[i])
             for i in range(N_FILES)}

    ranks = (rng.zipf(ZIPF_A, size=n_requests) - 1) % N_FILES
    paths = [f"/doc{r:05d}.html" for r in ranks]
    entries = [TraceEntry(path=p, size=sizes[p]) for p in paths]
    return Trace(entries=entries, sizes=sizes)


# -- open-loop workloads (flash crowds, DESIGN §14) ---------------------------


def open_loop_arrivals(trace: Trace, *, start: float, duration: float,
                       base_rate: float,
                       entropy: random.Random,
                       spike_start: float | None = None,
                       spike_end: float | None = None,
                       spike_multiplier: float = 1.0,
                       hot_fraction: float = 0.0) -> list[TimedRequest]:
    """Generate flash-crowd arrivals over ``trace``'s document catalogue.

    The arrival process is inhomogeneous Poisson, realized by thinning:
    a diurnal sinusoid (``base_rate`` modulated by
    :data:`DIURNAL_AMPLITUDE` over :data:`DIURNAL_PERIOD_S` seconds — the
    day compressed to simulation scale) times a ``spike_multiplier`` step
    inside ``[spike_start, spike_end)``.  During the spike a
    ``hot_fraction`` share of requests collapses onto the document at
    popularity rank ``HOT_RANK`` — the Zipf shift of a flash crowd,
    where everyone wants the same page — while the rest draw from the
    stationary Zipf(``ZIPF_A``) popularity law.

    All randomness comes from ``entropy`` (pass a
    ``SchedulingContext``-owned or ``Simulator.entropy`` stream); the
    shared simulator rng and the numpy trace rng are never touched, so
    adding a crowd cannot perturb any other workload's draws.
    """
    if base_rate <= 0 or duration <= 0:
        raise ValueError("need base_rate > 0 and duration > 0")
    ranked = sorted(trace.sizes)  # rank order: doc00000 is hottest
    cdf: list[float] = []
    acc = 0.0
    for r in range(len(ranked)):
        acc += (r + 1) ** -ZIPF_A
        cdf.append(acc)
    total = cdf[-1]

    def rate_at(t: float) -> float:
        lam = base_rate * (1.0 + DIURNAL_AMPLITUDE * math.sin(
            2.0 * math.pi * (t - start) / DIURNAL_PERIOD_S))
        if (spike_start is not None and spike_end is not None
                and spike_start <= t < spike_end):
            lam *= spike_multiplier
        return lam

    lam_max = (base_rate * (1.0 + DIURNAL_AMPLITUDE)
               * max(spike_multiplier, 1.0))
    arrivals: list[TimedRequest] = []
    t = start
    end = start + duration
    while True:
        t += entropy.expovariate(lam_max)
        if t >= end:
            break
        if entropy.random() * lam_max > rate_at(t):
            continue  # thinned: below the envelope at this instant
        in_spike = (spike_start is not None and spike_end is not None
                    and spike_start <= t < spike_end)
        if in_spike and entropy.random() < hot_fraction:
            path = ranked[HOT_RANK]
        else:
            i = bisect.bisect_left(cdf, entropy.random() * total)
            path = ranked[min(i, len(ranked) - 1)]
        arrivals.append(TimedRequest(at=t, path=path))
    return arrivals


def flood_times(*, start: float, duration: float, rate: float,
                entropy: random.Random) -> list[float]:
    """Poisson firing times for one attacker — SYN-flood or similar
    packet floods where only the timing matters, not a document."""
    if rate <= 0 or duration <= 0:
        raise ValueError("need rate > 0 and duration > 0")
    times: list[float] = []
    t = start
    end = start + duration
    while True:
        t += entropy.expovariate(rate)
        if t >= end:
            return times
        times.append(t)
