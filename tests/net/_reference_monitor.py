# FROZEN TEST ORACLE -- not product code.
#
# ``LoadMonitor`` exactly as it stood in src/repro/net/monitor.py while
# every transmission rebuilt a ``(slot, bytes)`` bucket in a deque and
# expired old ones on the spot.  tests/net/test_monitor_differential.py
# asserts that the open-slot accumulator in ``repro.net.monitor`` answers
# every query bit for bit as this one does.
# Do not "fix" or speed this up: its value is that it does not change.
from __future__ import annotations

from collections import deque


class LoadMonitor:
    """Sliding-window throughput estimator.

    ``window`` is the averaging horizon in seconds; shorter windows adapt
    faster but jitter more — the trade-off the audio experiment's
    hysteresis policy tames.
    """

    def __init__(self, window: float = 1.0, bucket: float = 0.1):
        if window <= 0 or bucket <= 0 or bucket > window:
            raise ValueError("need 0 < bucket <= window")
        self.window = window
        self.bucket = bucket
        self._buckets: deque[tuple[float, int]] = deque()
        self.total_bytes = 0
        self.total_packets = 0

    def record(self, now: float, nbytes: int) -> None:
        """Account ``nbytes`` transmitted at time ``now``.  Times must
        not decrease from one call to the next: the one caller, a
        transmit queue, passes its simulator's clock."""
        self.total_bytes += nbytes
        self.total_packets += 1
        slot = int(now / self.bucket)
        if self._buckets and self._buckets[-1][0] == slot:
            self._buckets[-1] = (slot, self._buckets[-1][1] + nbytes)
        else:
            self._buckets.append((slot, nbytes))
        self._expire(now)

    def _expire(self, now: float) -> None:
        horizon = int((now - self.window) / self.bucket)
        while self._buckets and self._buckets[0][0] < horizon:
            self._buckets.popleft()

    def bytes_in_window(self, now: float) -> int:
        self._expire(now)
        return sum(n for _slot, n in self._buckets)

    def _elapsed(self, now: float) -> float:
        """The averaging denominator: the window once it has filled,
        but only the elapsed time during warm-up — dividing the first
        partial window's bytes by the full window would underreport the
        rate (and bias the audio ASP's first adaptation decisions
        toward "plenty of headroom").  Floored at one bucket width so a
        lone packet at t≈0 cannot extrapolate to an absurd rate."""
        return max(min(now, self.window), self.bucket)

    def rate_kbps(self, now: float) -> int:
        """Measured rate over the window, in kbit/s (rounded down)."""
        return int(self.bytes_in_window(now) * 8 / self._elapsed(now)
                   / 1000)

    def rate_bps(self, now: float) -> float:
        return self.bytes_in_window(now) * 8 / self._elapsed(now)
