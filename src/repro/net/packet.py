"""Packet model for the simulated network.

The PLAN-P system "does not require any changes to existing packet
formats" (paper §2): a packet is an ordinary IP datagram with an optional
transport header.  Packets sent on *user-defined* PLAN-P channels carry a
channel tag so the receiving PLAN-P layer can dispatch them; packets from
existing applications are untagged and match ``network`` channels by type.

Headers are immutable value objects; PLAN-P primitives such as
``ipDestSet`` perform functional update and return new headers, which
keeps the interpreter and the JIT referentially transparent.  The update
helpers call the constructor directly — ``hop`` runs once per router per
packet, and a generic field-table replace costs several constructions.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field

from .addresses import ANY_ADDR, HostAddr

#: IP protocol numbers, as in the real stack.
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_RAW = 255

IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8

#: Default initial time-to-live.
DEFAULT_TTL = 64


@dataclass(frozen=True, slots=True)
class IpHeader:
    """An IPv4-style header (the PLAN-P ``ip`` value)."""

    src: HostAddr = ANY_ADDR
    dst: HostAddr = ANY_ADDR
    ttl: int = DEFAULT_TTL
    proto: int = PROTO_RAW
    tos: int = 0

    def with_dst(self, dst: HostAddr) -> "IpHeader":
        return IpHeader(self.src, dst, self.ttl, self.proto, self.tos)

    def with_src(self, src: HostAddr) -> "IpHeader":
        return IpHeader(src, self.dst, self.ttl, self.proto, self.tos)

    def with_ttl(self, ttl: int) -> "IpHeader":
        return IpHeader(self.src, self.dst, ttl, self.proto, self.tos)

    def decremented(self) -> "IpHeader":
        """The header after one hop (ttl - 1)."""
        return IpHeader(self.src, self.dst, self.ttl - 1, self.proto,
                        self.tos)

    def swapped(self) -> "IpHeader":
        """Source and destination exchanged — used when building replies."""
        return IpHeader(self.dst, self.src, self.ttl, self.proto, self.tos)


@dataclass(frozen=True, slots=True)
class TcpHeader:
    """A TCP-style header (the PLAN-P ``tcp`` value)."""

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    syn: bool = False
    fin: bool = False
    ack_flag: bool = False
    rst: bool = False
    window: int = 65535

    def _with_ports(self, src_port: int, dst_port: int) -> "TcpHeader":
        return TcpHeader(src_port, dst_port, self.seq, self.ack, self.syn,
                         self.fin, self.ack_flag, self.rst, self.window)

    def with_dst_port(self, port: int) -> "TcpHeader":
        return self._with_ports(self.src_port, port)

    def with_src_port(self, port: int) -> "TcpHeader":
        return self._with_ports(port, self.dst_port)

    def swapped(self) -> "TcpHeader":
        return self._with_ports(self.dst_port, self.src_port)

    @property
    def flags(self) -> int:
        """Flags packed as in a real header: FIN|SYN|RST|ACK bit positions."""
        return (int(self.fin) | (int(self.syn) << 1) | (int(self.rst) << 2)
                | (int(self.ack_flag) << 4))


@dataclass(frozen=True, slots=True)
class UdpHeader:
    """A UDP-style header (the PLAN-P ``udp`` value)."""

    src_port: int = 0
    dst_port: int = 0

    def with_dst_port(self, port: int) -> "UdpHeader":
        return UdpHeader(self.src_port, port)

    def with_src_port(self, port: int) -> "UdpHeader":
        return UdpHeader(port, self.dst_port)

    def swapped(self) -> "UdpHeader":
        return UdpHeader(self.dst_port, self.src_port)


#: a fresh simulator-level trace id per call
next_uid = itertools.count(1).__next__

#: the IP protocol number each transport header class implies
TRANSPORT_PROTO = {TcpHeader: PROTO_TCP, UdpHeader: PROTO_UDP}


@dataclass(slots=True)
class Packet:
    """The unit transmitted by the simulator.

    ``channel`` is the PLAN-P channel tag for packets sent on user-defined
    channels (``None`` for ordinary application traffic).  ``uid`` is a
    simulator-level trace id, fresh per packet object; copies made by
    packet duplication get fresh uids with the original recorded in
    ``copied_from``.
    """

    ip: IpHeader
    transport: TcpHeader | UdpHeader | None = None
    payload: bytes = b""
    channel: str | None = None
    uid: int = field(default_factory=next_uid)
    copied_from: int | None = None
    created_at: float = 0.0

    def __post_init__(self) -> None:
        if self.transport is not None:
            proto = TRANSPORT_PROTO[type(self.transport)]
            ip = self.ip
            if ip.proto != proto:
                self.ip = IpHeader(ip.src, ip.dst, ip.ttl, proto, ip.tos)

    @property
    def size(self) -> int:
        """Total on-the-wire size in bytes, headers included."""
        size = IP_HEADER_BYTES + len(self.payload)
        if isinstance(self.transport, TcpHeader):
            size += TCP_HEADER_BYTES
        elif isinstance(self.transport, UdpHeader):
            size += UDP_HEADER_BYTES
        return size

    def copy(self) -> "Packet":
        """A duplicate with a fresh uid (used by multicast and by ASPs)."""
        dup = dataclasses.replace(self, uid=next_uid(),
                                  copied_from=self.uid)
        return dup

    def hop(self) -> "Packet":
        """The packet after traversing one router (ttl decremented)."""
        return Packet(self.ip.decremented(), self.transport, self.payload,
                      self.channel, self.uid, self.copied_from,
                      self.created_at)

    def __repr__(self) -> str:
        kind = type(self.transport).__name__ if self.transport else "raw"
        tag = f" chan={self.channel}" if self.channel else ""
        return (f"Packet#{self.uid}({self.ip.src}->{self.ip.dst} {kind} "
                f"{len(self.payload)}B{tag})")


def udp_packet(src: HostAddr, dst: HostAddr, src_port: int, dst_port: int,
               payload: bytes, channel: str | None = None) -> Packet:
    """Build a UDP datagram."""
    return Packet(ip=IpHeader(src=src, dst=dst, proto=PROTO_UDP),
                  transport=UdpHeader(src_port=src_port, dst_port=dst_port),
                  payload=payload, channel=channel)


def tcp_packet(src: HostAddr, dst: HostAddr, src_port: int, dst_port: int,
               payload: bytes = b"", *, seq: int = 0, ack: int = 0,
               syn: bool = False, fin: bool = False, ack_flag: bool = False,
               rst: bool = False, channel: str | None = None) -> Packet:
    """Build a TCP segment."""
    hdr = TcpHeader(src_port=src_port, dst_port=dst_port, seq=seq, ack=ack,
                    syn=syn, fin=fin, ack_flag=ack_flag, rst=rst)
    return Packet(ip=IpHeader(src=src, dst=dst, proto=PROTO_TCP),
                  transport=hdr, payload=payload, channel=channel)
