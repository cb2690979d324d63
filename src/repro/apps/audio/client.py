"""The audio playback client (unmodified by adaptation).

Receives frame datagrams, tracks the received bandwidth and quality over
time, and detects *silent periods* — the playback gaps of the paper's
figure 7.  A gap opens when the next frame misses its playout deadline
(loss or delay) and closes when audio resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...asps.audio import AUDIO_PORT, FMT_STEREO16
from ...net.addresses import HostAddr
from ...net.node import Host
from ...net.topology import Network
from .codec import FRAME_MS, decode_frame


@dataclass
class SilentPeriod:
    start: float
    end: float
    frames_missed: int


@dataclass
class BandwidthSample:
    """Received audio payload rate over one bucket."""

    time: float
    kbps: float
    quality: int  # dominant format in the bucket
    formats: dict[int, int] = field(default_factory=dict)  # fmt -> frames


#: a frame this many frame intervals late opens a silent period
GAP_FACTOR = 3.0
GAP_THRESHOLD_S = GAP_FACTOR * FRAME_MS / 1000.0
#: width of one received-bandwidth sample (figure 6's x resolution)
BUCKET_S = 1.0


class AudioClient:
    """Joins the group and consumes the stream."""

    def __init__(self, net: Network, host: Host, group: HostAddr,
                 port: int = AUDIO_PORT):
        self.net = net
        self.host = host
        host.join_group(group)

        self.frames_received = 0
        self.bad_frames = 0
        self.last_seq: int | None = None
        self.last_arrival: float | None = None
        self.silent_periods: list[SilentPeriod] = []
        self.quality_seen: dict[int, int] = {}

        socket = net.udp(host).bind(port)
        socket.on_datagram = self._on_frame

    # -- reception ---------------------------------------------------------------

    def _on_frame(self, payload: bytes, src: HostAddr,
                  src_port: int) -> None:
        now = self.net.sim.now
        try:
            fmt, seq, pcm = decode_frame(payload)
        except ValueError:
            self.bad_frames += 1
            return
        self._check_gap(now, seq)
        self.frames_received += 1
        self.quality_seen[fmt] = self.quality_seen.get(fmt, 0) + 1
        self.last_seq = seq
        self.last_arrival = now

    def _check_gap(self, now: float, seq: int) -> None:
        if self.last_arrival is None:
            return
        elapsed = now - self.last_arrival
        missed = (seq - self.last_seq - 1) if self.last_seq is not None \
            else 0
        if elapsed > GAP_THRESHOLD_S or missed > 1:
            self.silent_periods.append(SilentPeriod(
                start=self.last_arrival, end=now,
                frames_missed=max(missed, 0)))

    # -- reporting ----------------------------------------------------------------

    def quality_fraction(self, fmt: int) -> float:
        if not self.frames_received:
            return 0.0
        return self.quality_seen.get(fmt, 0) / self.frames_received

    @property
    def restored(self) -> bool:
        """True if every received frame was 16-bit stereo — i.e. the
        client ASP restored all degraded frames before delivery."""
        return set(self.quality_seen) <= {FMT_STEREO16}
