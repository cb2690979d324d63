"""Packet tracing: the debugging story for simulated networks.

The paper argues the interpreter/DSL framework eases debugging of
in-kernel code; the simulator side of that story is this tracer, which
taps nodes and media and renders the network's packet-level history as
a readable timeline — the ``tcpdump`` of the reproduction.

There is one event store: the network's own log, ``net.obs.events``.
An attached tracer writes an ``rx`` / ``up`` / ``tx`` record there for
every packet a tapped node receives or delivers and every transmission
a tapped medium starts; drops are the ``drop`` records the network logs
whether or not a tracer is attached.  :meth:`PacketTracer.render` and
:meth:`PacketTracer.packet_path` read that log back.

Usage::

    tracer = PacketTracer(net)
    tracer.attach_all()
    net.run(until=1.0)
    print(tracer.render())
"""

from __future__ import annotations

from ..obs.events import MAX_EVENTS, EventRecord
from .node import Interface, Node
from .packet import Packet, TcpHeader, UdpHeader
from .topology import Network

#: the record kinds a trace shows: arrival at a node, local delivery,
#: start of a transmission, and the network's own drop records
TRACE_KINDS = ("rx", "up", "tx", "drop")


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


def _format(record: EventRecord) -> str:
    data = record.data
    line = (f"{record.t * 1000:10.3f}ms {record.node:>12s} "
            f"{record.kind:4s} #{data['uid']:<5d} "
            f"{data['src']:>15s} -> {data['dst']:<15s}")
    if record.kind == "drop":
        return f"{line} reason={data['reason']}"
    return (f"{line} {data['proto']:4s} {data['size']:5d}B "
            f"{data['info']}")


class PacketTracer:
    """Logs receive/deliver/send records of tapped nodes and media into
    the network's event log, and renders that log as a timeline."""

    def __init__(self, net: Network):
        self.net = net
        self._attached: set[str] = set()
        self._media_attached: set[int] = set()

    # -- attachment ----------------------------------------------------------

    def attach(self, node: Node) -> None:
        if node.name in self._attached:
            return
        self._attached.add(node.name)
        node.receive_taps.append(self._on_receive(node))
        node.delivery_taps.append(self._on_deliver(node))

    def attach_media(self) -> None:
        """Trace transmissions on every medium."""
        for medium in self.net.media:
            if id(medium) in self._media_attached:
                continue
            self._media_attached.add(id(medium))
            medium.add_send_tap(self._on_send)

    def attach_all(self) -> None:
        for node in self.net.nodes:
            self.attach(node)
        self.attach_media()

    def _record(self, node_name: str, kind: str, packet: Packet) -> None:
        proto, info = _describe(packet)
        self.net.obs.events.emit(
            kind, node=node_name, uid=packet.uid,
            src=str(packet.ip.src), dst=str(packet.ip.dst),
            proto=proto, size=packet.size, info=info)

    def _on_receive(self, node: Node):
        def tap(packet: Packet, _iface: Interface) -> None:
            self._record(node.name, "rx", packet)

        return tap

    def _on_deliver(self, node: Node):
        def tap(packet: Packet) -> None:
            self._record(node.name, "up", packet)

        return tap

    def _on_send(self, packet: Packet, sender: Interface) -> None:
        self._record(sender.node.name, "tx", packet)

    # -- reading the log back --------------------------------------------------

    def packet_path(self, uid: int) -> list[str]:
        """The nodes a packet visited, in order."""
        return [e.node for e in self.net.obs.events.events
                if e.kind == "rx" and e.data["uid"] == uid]

    def render(self) -> str:
        """The rx/up/tx/drop records of the log, one line each, and a
        closing line when the bounded log has discarded records."""
        log = self.net.obs.events
        lines = [_format(e) for e in log.events if e.kind in TRACE_KINDS]
        if log.dropped:
            lines.append(f"... {log.dropped} events not logged: the log "
                         f"holds {MAX_EVENTS}")
        return "\n".join(lines)
