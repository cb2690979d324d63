"""Packet tracing: the debugging story for simulated networks.

The paper argues the interpreter/DSL framework eases debugging of
in-kernel code; the simulator side of that story is this tracer, which
records packet-level events across the network and renders them as a
readable timeline — the ``tcpdump`` of the reproduction.

Usage::

    tracer = PacketTracer(net)
    tracer.attach_all()
    net.run(until=1.0)
    print(tracer.render(limit=50))
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .addresses import HostAddr
from .node import Interface, Node
from .packet import Packet, TcpHeader, UdpHeader
from .topology import Network

#: the tracer stops recording (and says so in ``render``) past this many
MAX_EVENTS = 100_000


class EventKind(enum.Enum):
    RECEIVE = "rx"
    DELIVER = "up"
    #: packet started transmission on a medium
    SEND = "tx"
    #: packet discarded (medium or node); ``info`` ends with the reason
    DROP = "drop"


@dataclass(frozen=True)
class TraceEvent:
    time: float
    node: str
    kind: EventKind
    uid: int
    src: HostAddr
    dst: HostAddr
    proto: str
    info: str
    size: int

    def format(self) -> str:
        return (f"{self.time * 1000:10.3f}ms {self.node:>12s} "
                f"{self.kind.value:2s} #{self.uid:<5d} "
                f"{str(self.src):>15s} -> {str(self.dst):<15s} "
                f"{self.proto:4s} {self.size:5d}B {self.info}")


def _describe(packet: Packet) -> tuple[str, str]:
    transport = packet.transport
    if isinstance(transport, TcpHeader):
        flags = "".join(name for name, on in (
            ("S", transport.syn), ("F", transport.fin),
            ("R", transport.rst), (".", transport.ack_flag)) if on)
        return "tcp", (f"{transport.src_port}->{transport.dst_port} "
                       f"[{flags}] seq={transport.seq}")
    if isinstance(transport, UdpHeader):
        info = f"{transport.src_port}->{transport.dst_port}"
        if packet.channel:
            info += f" chan={packet.channel}"
        return "udp", info
    return "raw", ""


class PacketTracer:
    """Collects send/receive/deliver/drop events from nodes and media.

    When the network has an observability scope attached
    (``net.obs``), every traced ``rx`` / ``up`` / ``tx`` event is also
    mirrored into its structured event log — packet-level logging is
    opt-in by attaching a tracer, keeping the always-on log small.
    (Drops are *not* mirrored here; the network's own drop taps already
    log them unconditionally.)
    """

    def __init__(self, net: Network, mirror: bool = True):
        self.net = net
        self.max_events = MAX_EVENTS
        self.mirror = mirror
        self.events: list[TraceEvent] = []
        self.truncated = False
        self._attached: set[str] = set()
        self._media_attached: set[int] = set()

    # -- attachment ----------------------------------------------------------

    def attach(self, node: Node) -> None:
        if node.name in self._attached:
            return
        self._attached.add(node.name)
        node.receive_taps.append(self._on_receive(node))
        node.delivery_taps.append(self._on_deliver(node))
        node.drop_taps.append(self._on_node_drop(node))

    def attach_media(self) -> None:
        """Trace transmissions and drops on every medium."""
        for medium in self.net.media:
            if id(medium) in self._media_attached:
                continue
            self._media_attached.add(id(medium))
            medium.add_send_tap(self._on_send)
            medium.add_drop_tap(self._on_medium_drop)

    def attach_all(self) -> None:
        for node in self.net.nodes:
            self.attach(node)
        self.attach_media()

    def _record(self, node_name: str, kind: EventKind, packet: Packet,
                suffix: str = "") -> None:
        if len(self.events) >= self.max_events:
            self.truncated = True
            return
        proto, info = _describe(packet)
        if suffix:
            info = f"{info} {suffix}".strip()
        self.events.append(TraceEvent(
            time=self.net.sim.now, node=node_name, kind=kind,
            uid=packet.uid, src=packet.ip.src, dst=packet.ip.dst,
            proto=proto, info=info, size=packet.size))
        if (self.mirror and kind is not EventKind.DROP
                and self.net.obs is not None):
            self.net.obs.events.emit(
                kind.value, node=node_name, uid=packet.uid,
                src=str(packet.ip.src), dst=str(packet.ip.dst),
                proto=proto, size=packet.size)

    def _on_receive(self, node: Node):
        def tap(packet: Packet, _iface: Interface) -> None:
            self._record(node.name, EventKind.RECEIVE, packet)

        return tap

    def _on_deliver(self, node: Node):
        def tap(packet: Packet) -> None:
            self._record(node.name, EventKind.DELIVER, packet)

        return tap

    def _on_node_drop(self, node: Node):
        def tap(packet: Packet, reason: str) -> None:
            self._record(node.name, EventKind.DROP, packet,
                         suffix=f"reason={reason}")

        return tap

    def _on_send(self, packet: Packet, sender: Interface) -> None:
        self._record(sender.node.name, EventKind.SEND, packet)

    def _on_medium_drop(self, packet: Packet, sender: Interface,
                        reason: str) -> None:
        self._record(sender.node.name, EventKind.DROP, packet,
                     suffix=f"reason={reason}")

    # -- queries -----------------------------------------------------------------

    def filter(self, *, node: str | None = None,
               proto: str | None = None,
               uid: int | None = None,
               predicate: Callable[[TraceEvent], bool] | None = None
               ) -> list[TraceEvent]:
        out = self.events
        if node is not None:
            out = [e for e in out if e.node == node]
        if proto is not None:
            out = [e for e in out if e.proto == proto]
        if uid is not None:
            out = [e for e in out if e.uid == uid]
        if predicate is not None:
            out = [e for e in out if predicate(e)]
        return out

    def packet_path(self, uid: int) -> list[str]:
        """The nodes a packet visited, in order."""
        return [e.node for e in self.events
                if e.uid == uid and e.kind is EventKind.RECEIVE]

    def render(self, limit: int | None = None, **filter_kwargs) -> str:
        events = self.filter(**filter_kwargs)
        if limit is not None:
            events = events[:limit]
        lines = [e.format() for e in events]
        if self.truncated:
            lines.append(f"... trace truncated at {self.max_events} "
                         f"events")
        return "\n".join(lines)
