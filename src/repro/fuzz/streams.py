"""Adversarial packet-stream generator.

Streams are built in two phases: first *valid* packets crafted against
the program's channel packet types (correct transport, exact or
tail-extended payload lengths, extreme-but-legal field values), then
structure-aware *mutations* aimed at the codec, the struct-of-arrays
batch decoder, and the containment path:

* truncation — drop bytes off the payload so fixed views run dry;
* stride breaking — lengths off by one from the fixed-view sum, so
  tail-less layouts and the batch ``iter_unpack`` stride disagree;
* oversized tails — kilobyte tails on blob/string layouts;
* bit flips — corrupt encoded wire bytes in place;
* retagging — wrong or unknown channel tags, transport swaps;
* run repetition — duplicate a packet into a same-shape run so the
  batch path forms real multi-row batches.

Packets travel as :class:`PacketSpec` — a plain-data description that
serializes to JSON for the replay protocol and materializes to a real
:class:`~repro.net.packet.Packet` on demand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..lang import types as T
from ..net.addresses import HostAddr
from ..net.packet import (PROTO_RAW, PROTO_TCP, PROTO_UDP, IpHeader,
                          Packet, TcpHeader, UdpHeader)
from ..runtime import codec

#: valid-but-extreme field values
_PORTS = (0, 1, 80, 8080, 65535)
_TTLS = (0, 1, 64, 255)
_INTS = (0, 1, -1, 255, 2147483647, -2147483648)
_HOSTS = (0, 1, 0x0A000001, 0xFFFFFFFF)


@dataclass(frozen=True)
class PacketSpec:
    """A wire packet as plain data (JSON-serializable for replay)."""

    src: int = 0x0A000001
    dst: int = 0x0A000002
    ttl: int = 64
    tos: int = 0
    transport: str = "tcp"  # "tcp" | "udp" | "raw"
    sport: int = 1000
    dport: int = 80
    syn: bool = False
    payload: bytes = b""
    channel: str | None = None

    def to_packet(self) -> Packet:
        if self.transport == "tcp":
            header: TcpHeader | UdpHeader | None = TcpHeader(
                src_port=self.sport, dst_port=self.dport, syn=self.syn)
            proto = PROTO_TCP
        elif self.transport == "udp":
            header = UdpHeader(src_port=self.sport, dst_port=self.dport)
            proto = PROTO_UDP
        else:
            header = None
            proto = PROTO_RAW
        ip = IpHeader(src=HostAddr(self.src), dst=HostAddr(self.dst),
                      ttl=self.ttl, proto=proto, tos=self.tos)
        return Packet(ip=ip, transport=header, payload=self.payload,
                      channel=self.channel)

    def to_dict(self) -> dict:
        return {"src": self.src, "dst": self.dst, "ttl": self.ttl,
                "tos": self.tos, "transport": self.transport,
                "sport": self.sport, "dport": self.dport,
                "syn": self.syn, "payload": self.payload.hex(),
                "channel": self.channel}

    @classmethod
    def from_dict(cls, data: dict) -> "PacketSpec":
        data = dict(data)
        data["payload"] = bytes.fromhex(data["payload"])
        return cls(**data)


def _valid_payload(rng: random.Random, views: list[T.Type]) -> bytes:
    """A payload every view consumes exactly, with extreme field
    values; tails draw from {empty, short, kilobyte}."""
    chunks: list[bytes] = []
    for view in views:
        if view == T.INT:
            chunks.append(rng.choice(_INTS).to_bytes(4, "big", signed=True))
        elif view == T.HOST:
            chunks.append(rng.choice(_HOSTS).to_bytes(4, "big"))
        elif view == T.CHAR:
            chunks.append(bytes([rng.randrange(256)]))
        elif view == T.BOOL:
            chunks.append(bytes([rng.choice((0, 1, 255))]))
        else:  # blob/string tail
            n = rng.choice((0, 0, 1, 3, 8, 64, 1024))
            chunks.append(rng.randbytes(n))
    return b"".join(chunks)


def _spec_for(rng: random.Random, decl, tag: str | None) -> PacketSpec:
    """A valid packet for one channel overload."""
    lay = codec.layout(decl.packet_type)
    return PacketSpec(
        src=rng.choice(_HOSTS), dst=rng.choice(_HOSTS),
        ttl=rng.choice(_TTLS), tos=rng.choice((0, 1, 0xFF)),
        transport=lay.transport_name, sport=rng.choice(_PORTS),
        dport=rng.choice(_PORTS), syn=rng.random() < 0.5,
        payload=_valid_payload(rng, lay.views), channel=tag)


def _mutate(rng: random.Random, spec: PacketSpec,
            channel_names: list[str]) -> PacketSpec:
    """One structure-aware mutation."""
    kind = rng.randrange(7)
    payload = spec.payload
    if kind == 0 and payload:  # truncate
        return replace(spec, payload=payload[:rng.randrange(len(payload))])
    if kind == 1:  # stretch by a stride-breaking amount
        return replace(spec,
                       payload=payload + rng.randbytes(rng.choice((1, 2,
                                                                   3, 5))))
    if kind == 2 and payload:  # bit flip
        i = rng.randrange(len(payload))
        flipped = payload[:i] + bytes([payload[i] ^ (1 << rng.randrange(8))
                                       ]) + payload[i + 1:]
        return replace(spec, payload=flipped)
    if kind == 3:  # oversized tail
        return replace(spec, payload=payload + bytes(1024))
    if kind == 4:  # retag: wrong, unknown, or stripped channel tag
        tag = rng.choice(channel_names + ["nochan", None])
        return replace(spec, channel=tag)
    if kind == 5:  # transport swap
        return replace(spec, transport=rng.choice(("tcp", "udp", "raw")))
    # garbage payload of arbitrary length
    return replace(spec, payload=rng.randbytes(rng.randrange(0, 24)))


def gen_stream(rng: random.Random, info, length: int = 12,
               mutation_rate: float = 0.45) -> list[PacketSpec]:
    """An adversarial stream against a typechecked program.

    ``info`` is the :class:`~repro.lang.typechecker.ProgramInfo`; the
    stream mixes valid packets for every declared overload (so engines
    actually execute), mutated descendants of those packets (so the
    codec and containment paths fire), and repetition runs (so the
    batch tier forms real multi-row batches).
    """
    decls: list[tuple] = []
    for name, overloads in info.channels.items():
        tag = None if name == "network" else name
        for decl in overloads:
            decls.append((decl, tag))
    channel_names = [n for n in info.channels if n != "network"]
    stream: list[PacketSpec] = []
    while len(stream) < length:
        decl, tag = rng.choice(decls)
        spec = _spec_for(rng, decl, tag)
        if rng.random() < mutation_rate:
            spec = _mutate(rng, spec, channel_names)
        # Repetition runs give the batch tier same-shape rows to fold.
        reps = rng.choice((1, 1, 1, 2, 3, 5))
        stream.extend([spec] * min(reps, length - len(stream)))
    return stream
