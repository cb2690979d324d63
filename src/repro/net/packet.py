"""Packet model for the simulated network.

The PLAN-P system "does not require any changes to existing packet
formats" (paper §2): a packet is an ordinary IP datagram with an optional
transport header.  Packets sent on *user-defined* PLAN-P channels carry a
channel tag so the receiving PLAN-P layer can dispatch them; packets from
existing applications are untagged and match ``network`` channels by type.

Headers are immutable value objects; PLAN-P primitives such as
``ipDestSet`` perform functional update and return new headers, which
keeps the interpreter and the JIT referentially transparent.  The update
helpers call the constructor directly, by position — ``hop`` runs once
per router per packet, and a generic field-table replace costs several
constructions — and the headers' constructors store through the slot
descriptors (:func:`~repro.net.addresses.slot_init`).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field

from .addresses import ANY_ADDR, HostAddr, slot_init

#: IP protocol numbers, as in the real stack.
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_RAW = 255

IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8

#: Default initial time-to-live.
DEFAULT_TTL = 64


@slot_init
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

    def decremented(self) -> "IpHeader":
        """The header after one hop (ttl - 1)."""
        return IpHeader(self.src, self.dst, self.ttl - 1, self.proto,
                        self.tos)

    def swapped(self) -> "IpHeader":
        """Source and destination exchanged — used when building replies."""
        return IpHeader(self.dst, self.src, self.ttl, self.proto, self.tos)


@slot_init
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


@slot_init
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

#: header bytes on the wire, keyed by transport class (``None``: raw IP)
_HEADER_BYTES = {type(None): IP_HEADER_BYTES,
                 TcpHeader: IP_HEADER_BYTES + TCP_HEADER_BYTES,
                 UdpHeader: IP_HEADER_BYTES + UDP_HEADER_BYTES}


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
        return _HEADER_BYTES[self.transport.__class__] + len(self.payload)

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
               payload: bytes) -> Packet:
    """Build an untagged UDP datagram."""
    return Packet(IpHeader(src, dst, DEFAULT_TTL, PROTO_UDP),
                  UdpHeader(src_port, dst_port), payload)


def tcp_packet(src: HostAddr, dst: HostAddr, src_port: int, dst_port: int,
               payload: bytes = b"", seq: int = 0, ack: int = 0,
               syn: bool = False, fin: bool = False, ack_flag: bool = False,
               rst: bool = False) -> Packet:
    """Build an untagged TCP segment."""
    return Packet(IpHeader(src, dst, DEFAULT_TTL, PROTO_TCP),
                  TcpHeader(src_port, dst_port, seq, ack, syn, fin, ack_flag,
                            rst),
                  payload)
