"""Overload-control building blocks (DESIGN §14).

Two mechanisms for the endpoints:

* :class:`Backoff` — the jittered-exponential retry schedule of the
  HTTP client's retry policy.  The jitter draw is one
  ``entropy.random()`` per armed timer, so a caller that feeds a
  per-entity entropy stream is unaffected by unrelated traffic.
* :class:`AdmissionController` — AIMD admission: a token bucket whose
  fill rate is raised additively while the system is healthy and cut
  multiplicatively on every overload signal, the classic TCP-shaped
  response that keeps a shedding server at the knee of its capacity
  curve instead of oscillating between empty and collapsed.

Both are pure mechanisms: they own no node and schedule nothing —
callers inject clocks/entropy.
"""

from __future__ import annotations

import random

__all__ = ["AdmissionController", "Backoff"]


class Backoff:
    """A jittered exponential backoff schedule.

    ``delay()`` returns the next timer value (one jitter draw from
    ``entropy`` per call); ``bump()`` doubles the base toward
    ``ceiling`` after a silent timeout; ``reset()`` restores the
    initial base on progress.  With ``entropy=None`` the delay is
    unjittered (deterministic), which unit tests use.
    """

    def __init__(self, *, initial: float, ceiling: float,
                 multiplier: float = 2.0, jitter: float = 0.5,
                 entropy: random.Random | None = None):
        if initial <= 0 or ceiling < initial:
            raise ValueError("need 0 < initial <= ceiling")
        if multiplier < 1.0:
            raise ValueError(f"multiplier {multiplier} would shrink")
        self.initial = initial
        self.ceiling = ceiling
        self.multiplier = multiplier
        self.jitter = jitter
        self.entropy = entropy
        self.current = initial
        self.attempts = 0

    def delay(self) -> float:
        """The next timer value: the current base, jittered."""
        base = self.current
        if self.entropy is not None and self.jitter > 0:
            return base * (1.0 + self.jitter
                           * (2.0 * self.entropy.random() - 1.0))
        return base

    def bump(self) -> None:
        """A timer fired with no progress: double toward the ceiling."""
        self.attempts += 1
        self.current = min(self.current * self.multiplier, self.ceiling)

    def reset(self) -> None:
        """Progress was made: restore the initial base."""
        self.current = self.initial
        self.attempts = 0


class AdmissionController:
    """AIMD admission control over a token bucket.

    ``admit(now)`` spends one token when available.  The bucket refills
    at ``rate`` requests/second (capped at ``burst`` tokens);
    :meth:`on_overload` multiplies ``rate`` by ``decrease`` (floored),
    :meth:`on_healthy` adds ``increase`` (ceilinged) — additive
    increase, multiplicative decrease.
    """

    def __init__(self, *, rate: float = 100.0, floor: float = 1.0,
                 ceiling: float = 10_000.0, increase: float = 1.0,
                 decrease: float = 0.5, burst: float = 10.0):
        if not 0 < floor <= ceiling:
            raise ValueError("need 0 < floor <= ceiling")
        if not 0 < decrease < 1:
            raise ValueError(f"decrease {decrease} must be in (0, 1)")
        self.rate = min(max(rate, floor), ceiling)
        self.floor = floor
        self.ceiling = ceiling
        self.increase = increase
        self.decrease = decrease
        self.burst = burst
        self.admitted = 0
        self.refused = 0
        self._tokens = burst
        self._last: float | None = None

    def _refill(self, now: float) -> None:
        if self._last is not None and now > self._last:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._last)
                               * self.rate)
        self._last = now

    def admit(self, now: float) -> bool:
        """Spend one token at time ``now`` if available."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.admitted += 1
            return True
        self.refused += 1
        return False

    def on_overload(self) -> None:
        """An overload signal (queue overflow, deadline miss):
        multiplicative decrease."""
        self.rate = max(self.floor, self.rate * self.decrease)

    def on_healthy(self) -> None:
        """A healthy completion: additive increase."""
        self.rate = min(self.ceiling, self.rate + self.increase)

    def stats_dict(self) -> dict[str, float]:
        return {"rate": self.rate, "admitted": self.admitted,
                "refused": self.refused}
