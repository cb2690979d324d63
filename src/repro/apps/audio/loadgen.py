"""The load generator of figure 5.

Sends UDP filler traffic onto the client segment at a scheduled rate,
crowding the shared medium so the router's adaptation has something to
adapt to.  Rates change at schedule breakpoints, which is how the
experiment reproduces figure 6's step loads at 100 s / 220 s / 340 s.
"""

from __future__ import annotations

from ...net.addresses import HostAddr
from ...net.node import Host
from ...net.topology import Network

#: UDP discard port the filler traffic targets.
DISCARD_PORT = 9
#: filler datagram payload size, and how often the rate is paid out
PACKET_BYTES = 1000
TICK_S = 0.01


class LoadGenerator:
    """Constant-bit-rate filler with a rate schedule."""

    def __init__(self, net: Network, host: Host, sink: HostAddr):
        self.net = net
        self.host = host
        self.sink = sink
        self.rate_bps = 0.0
        self.packets_sent = 0
        self._carry = 0.0
        self._socket = net.udp(host).bind()
        self._payload = bytes(PACKET_BYTES)
        net.sim.every(TICK_S, self._tick)

    def set_rate(self, rate_bps: float) -> None:
        self.rate_bps = max(0.0, rate_bps)

    def schedule(self, steps: list[tuple[float, float]]) -> None:
        """Apply ``(at_seconds, rate_bps)`` steps."""
        for at, rate in steps:
            self.net.sim.at(at, lambda r=rate: self.set_rate(r))

    def _tick(self) -> None:
        if self.rate_bps <= 0:
            self._carry = 0.0
            return
        self._carry += self.rate_bps * TICK_S / 8
        while self._carry >= PACKET_BYTES:
            self._socket.sendto(self.sink, DISCARD_PORT, self._payload)
            self.packets_sent += 1
            self._carry -= PACKET_BYTES
