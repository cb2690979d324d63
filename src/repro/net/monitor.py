"""Link-load measurement.

The audio-broadcast router ASP of paper §3.1 reads the measured traffic
on its outgoing link and degrades quality when it approaches capacity.
"Measurements are performed locally on the router", which is what makes
the adaptation immediate compared to end-to-end feedback.

:class:`LoadMonitor` implements the measurement: a sliding window of
transmitted-byte buckets, queried as a kbit/s rate.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the averaging horizon in seconds: shorter windows adapt faster but
#: jitter more — the trade-off the audio experiment's hysteresis
#: policy tames
WINDOW_S = 1.0
#: the slot width in seconds; the window is ten of them
BUCKET_S = 0.1


class LoadMonitor:
    """Sliding-window throughput estimator.

    Bytes accumulate in the current :data:`BUCKET_S`-wide slot of a
    :data:`WINDOW_S` window; a slot becomes a ``(slot, bytes)`` entry of
    the window only when a later slot starts, so a transmission costs
    two additions, not a tuple.  Slots
    older than the window are expired on a slot change (which bounds
    the list) and on every query.  Every clock reading given to
    :meth:`record` and to the queries must not decrease from one call
    to the next: the one caller, a transmit queue, passes its
    simulator's clock.
    """

    __slots__ = ("_buckets", "_slot", "_bytes", "total_bytes",
                 "total_packets")

    def __init__(self):
        #: closed slots, oldest first: ``(slot, bytes)``
        self._buckets: list[tuple[int, int]] = []
        #: the open slot and the bytes recorded in it so far
        self._slot = -1
        self._bytes = 0
        self.total_bytes = 0
        self.total_packets = 0

    def record(self, now: float, nbytes: int) -> None:
        """Account ``nbytes`` transmitted at time ``now``."""
        self.total_bytes += nbytes
        self.total_packets += 1
        slot = int(now / BUCKET_S)
        if slot == self._slot:
            self._bytes += nbytes
            return
        if self._bytes:  # an empty slot adds nothing to any window
            self._buckets.append((self._slot, self._bytes))
            self._expire(now)
        self._slot = slot
        self._bytes = nbytes

    def _expire(self, now: float) -> int:
        """Drop closed slots older than the window ending at ``now``;
        returns the oldest slot still inside it."""
        horizon = int((now - WINDOW_S) / BUCKET_S)
        buckets = self._buckets
        while buckets and buckets[0][0] < horizon:
            del buckets[0]
        return horizon

    def bytes_in_window(self, now: float) -> int:
        horizon = self._expire(now)
        total = sum(n for _slot, n in self._buckets)
        if self._slot >= horizon:
            total += self._bytes
        return total

    def _elapsed(self, now: float) -> float:
        """The averaging denominator: the window once it has filled,
        but only the elapsed time during warm-up — dividing the first
        partial window's bytes by the full window would underreport the
        rate (and bias the audio ASP's first adaptation decisions
        toward "plenty of headroom").  Floored at one bucket width so a
        lone packet at t≈0 cannot extrapolate to an absurd rate."""
        return max(min(now, WINDOW_S), BUCKET_S)

    def rate_kbps(self, now: float) -> int:
        """Measured rate over the window, in kbit/s (rounded down)."""
        return int(self.bytes_in_window(now) * 8 / self._elapsed(now)
                   / 1000)

    def rate_bps(self, now: float) -> float:
        return self.bytes_in_window(now) * 8 / self._elapsed(now)


@dataclass(slots=True)
class LinkStats:
    """Cumulative per-link counters, used by experiment reports.

    ``packets_dropped`` counts queue (drop-tail) losses before
    transmission; ``packets_lost`` counts medium losses after the
    packet consumed airtime.  Offered = sent + dropped;
    delivered = sent - lost.
    """

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_dropped: int = 0
    bytes_dropped: int = 0
    packets_lost: int = 0
    bytes_lost: int = 0
