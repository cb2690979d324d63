"""The audio broadcasting application (unmodified by adaptation).

"A simple utility that broadcasts CD quality audio ... using IP
multicast" — a periodic frame clock pushing 16-bit stereo datagrams to a
multicast group.  It knows nothing about the router ASP.
"""

from __future__ import annotations

from ...asps.audio import AUDIO_PORT, FMT_STEREO16
from ...net.addresses import HostAddr
from ...net.node import Host
from ...net.sim import PeriodicTask
from ...net.topology import Network
from .codec import (FRAME_MS, SAMPLES_PER_FRAME, encode_frame,
                    generate_pcm_stereo16)


class AudioSource:
    """Broadcasts an audio stream to a multicast group."""

    def __init__(self, net: Network, host: Host, group: HostAddr,
                 port: int = AUDIO_PORT):
        self.net = net
        self.host = host
        self.group = group
        self.port = port
        self.frames_sent = 0
        self._socket = net.udp(host).bind(port)
        self._task: PeriodicTask | None = None

    def start(self, at: float = 0.0, until: float | None = None) -> None:
        self._task = self.net.sim.every(FRAME_MS / 1000.0, self._tick,
                                        start=at, until=until)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()

    def _tick(self) -> None:
        pcm = generate_pcm_stereo16(self.frames_sent, SAMPLES_PER_FRAME)
        payload = encode_frame(FMT_STEREO16, self.frames_sent, pcm)
        self._socket.sendto(self.group, self.port, payload)
        self.frames_sent += 1
