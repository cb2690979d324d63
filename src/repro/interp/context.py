"""Execution context: the boundary between an ASP and its node.

Every PLAN-P primitive that touches the outside world (packet emission,
clocks, link monitoring, console output) goes through an
:class:`ExecutionContext`.  The node's PLAN-P layer implements it against
the simulator; tests use :class:`RecordingContext`, which records
emissions and serves canned monitor readings.

This is exactly the paper's architecture: the interpreter is "portable"
because all OS interaction is behind a small primitive API, and the same
boundary is preserved by the generated JIT.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Protocol

from ..net.addresses import HostAddr


class ExecutionContext(Protocol):
    """Host services available to an executing PLAN-P program."""

    def emit_remote(self, channel: str, packet_value: tuple) -> None:
        """``OnRemote(chan, pkt)`` — route ``pkt`` toward its IP
        destination; the next PLAN-P node runs channel ``chan`` on it."""

    def emit_neighbor(self, channel: str, packet_value: tuple,
                      neighbor: HostAddr) -> None:
        """``OnNeighbor(chan, pkt, h)`` — hand ``pkt`` to the directly
        connected neighbor ``h`` without IP routing."""

    def deliver(self, packet_value: tuple) -> None:
        """``deliver(pkt)`` — pass ``pkt`` up to the local application."""

    def drop(self, packet_value: tuple) -> None:
        """``drop(pkt)`` — intentionally discard (counted by the node)."""

    def this_host(self) -> HostAddr:
        """The address of the executing node."""

    def time_ms(self) -> int:
        """Current time in milliseconds."""

    def link_load(self, toward: HostAddr) -> int:
        """Measured traffic (kbit/s) on the outgoing link toward an
        address — the router-local measurement that makes adaptation
        immediate (paper §3.1)."""

    def link_bandwidth(self, toward: HostAddr) -> int:
        """Capacity (kbit/s) of the outgoing link toward an address."""

    def queue_len(self, toward: HostAddr) -> int:
        """Packets queued on the outgoing link toward an address."""

    def random_int(self, bound: int) -> int:
        """A uniform integer in ``[0, bound)`` from the node's RNG."""

    def output(self, text: str) -> None:
        """Console output (``print``/``println``)."""


@dataclass
class Emission:
    """One recorded packet emission (for tests and tracing)."""

    kind: str  # "remote" | "neighbor" | "deliver" | "drop"
    channel: str | None
    packet_value: tuple
    neighbor: HostAddr | None = None


@dataclass
class RecordingContext:
    """A stand-alone context for unit tests and offline execution.

    Monitor readings are served from the ``loads`` / ``bandwidths`` /
    ``queues`` dicts (keyed by address), with scalar fallbacks.
    """

    host: HostAddr = field(default_factory=lambda: HostAddr.parse("127.0.0.1"))
    now_ms: int = 0
    default_load: int = 0
    default_bandwidth: int = 10_000
    default_queue: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        self.emissions: list[Emission] = []
        self.printed: list[str] = []
        self.loads: dict[HostAddr, int] = {}
        self.bandwidths: dict[HostAddr, int] = {}
        self.queues: dict[HostAddr, int] = {}
        self._rng = random.Random(self.seed)

    # -- emission ------------------------------------------------------------

    def emit_remote(self, channel: str, packet_value: tuple) -> None:
        self.emissions.append(Emission("remote", channel, packet_value))

    def emit_neighbor(self, channel: str, packet_value: tuple,
                      neighbor: HostAddr) -> None:
        self.emissions.append(
            Emission("neighbor", channel, packet_value, neighbor))

    def deliver(self, packet_value: tuple) -> None:
        self.emissions.append(Emission("deliver", None, packet_value))

    def drop(self, packet_value: tuple) -> None:
        self.emissions.append(Emission("drop", None, packet_value))

    # -- environment -----------------------------------------------------------

    def this_host(self) -> HostAddr:
        return self.host

    def time_ms(self) -> int:
        return self.now_ms

    def link_load(self, toward: HostAddr) -> int:
        return self.loads.get(toward, self.default_load)

    def link_bandwidth(self, toward: HostAddr) -> int:
        return self.bandwidths.get(toward, self.default_bandwidth)

    def queue_len(self, toward: HostAddr) -> int:
        return self.queues.get(toward, self.default_queue)

    def random_int(self, bound: int) -> int:
        return self._rng.randrange(bound) if bound > 0 else 0

    def output(self, text: str) -> None:
        self.printed.append(text)
