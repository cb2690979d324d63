"""The adversarial stream generator and the PacketSpec protocol."""

import random

from repro.fuzz.grammar import gen_program
from repro.fuzz.streams import PacketSpec, _spec_for, gen_stream
from repro.lang import parse, typecheck
from repro.net.packet import PROTO_RAW, PROTO_TCP, PROTO_UDP, TcpHeader, UdpHeader


def _info(seed=3):
    return typecheck(parse(gen_program(random.Random(seed))))


class TestPacketSpec:
    def test_dict_roundtrip(self):
        spec = PacketSpec(transport="udp", sport=0, dport=65535,
                          payload=b"\x00\xff\x7f", channel="aux")
        assert PacketSpec.from_dict(spec.to_dict()) == spec

    def test_to_packet_transports(self):
        tcp = PacketSpec(transport="tcp", syn=True).to_packet()
        assert isinstance(tcp.transport, TcpHeader)
        assert tcp.transport.syn
        assert tcp.ip.proto == PROTO_TCP
        udp = PacketSpec(transport="udp").to_packet()
        assert isinstance(udp.transport, UdpHeader)
        assert udp.ip.proto == PROTO_UDP
        raw = PacketSpec(transport="raw").to_packet()
        assert raw.transport is None
        assert raw.ip.proto == PROTO_RAW

    def test_payload_hex_survives_json(self):
        import json
        spec = PacketSpec(payload=bytes(range(256)))
        again = PacketSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert again.payload == spec.payload


class TestGenStream:
    def test_deterministic(self):
        info = _info()
        a = gen_stream(random.Random(5), info)
        b = gen_stream(random.Random(5), info)
        assert a == b

    def test_requested_length(self):
        info = _info()
        for n in (1, 7, 12, 40):
            assert len(gen_stream(random.Random(1), info, length=n)) == n

    def test_contains_repetition_runs(self):
        """Across seeds, some stream must contain adjacent duplicates —
        the raw material for multi-row batches."""
        info = _info()
        found = False
        for seed in range(30):
            stream = gen_stream(random.Random(seed), info, length=12)
            if any(a == b for a, b in zip(stream, stream[1:])):
                found = True
                break
        assert found

    def test_contains_mutants(self):
        """Across seeds, payload lengths must stray from the valid
        shapes (truncations / stride breaks / oversized tails)."""
        info = _info()
        lengths = set()
        for seed in range(30):
            for spec in gen_stream(random.Random(seed), info, length=12):
                lengths.add(len(spec.payload))
        assert len(lengths) > 5
        assert any(n > 512 for n in lengths)  # oversized tails

    def test_mutation_rate_zero_is_all_valid(self):
        """Unmutated, every packet decodes on some overload of its
        channel (the valid-packet construction is really valid)."""
        from repro.runtime import codec
        info = _info()
        plans = {}
        decls = []
        for name, overloads in info.channels.items():
            tag = None if name == "network" else name
            plans.setdefault(tag, []).extend(
                codec.dispatch_plan(d.packet_type) for d in overloads)
            decls.extend((d, tag) for d in overloads)
        for seed in range(10):
            rng = random.Random(seed)
            for decl, tag in decls:
                spec = _spec_for(rng, decl, tag)
                packet = spec.to_packet()
                assert any(
                    plan.transport_cls is type(packet.transport)
                    and plan.admits(len(packet.payload))
                    for plan in plans[spec.channel]), spec
