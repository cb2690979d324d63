"""Dynamic soundness: static verdicts hold at run time.

For every shipped (verifier-accepted) ASP, bombard it with randomized
packets and check the properties the analyses promised:

* **delivery**: every invocation performs at least one emission
  (OnRemote/OnNeighbor/deliver) and never lets an exception escape;
* **duplication**: no invocation emits more than a small constant
  number of packets (linearity per hop);
* and state transitions never corrupt the (ps, ss) pair shape.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asps import (audio_client_asp, audio_router_asp,
                        http_gateway_asp, image_distiller_asp,
                        mpeg_client_asp, mpeg_monitor_asp)
from repro.interp import Interpreter, RecordingContext
from repro.interp.values import default_value
from repro.lang import parse, typecheck
from repro.net.addresses import HostAddr
from repro.net.packet import IpHeader, TcpHeader, UdpHeader
from repro.runtime import codec

ASPS = {
    "audio-router": audio_router_asp(),
    "audio-client": audio_client_asp(),
    "http-gateway": http_gateway_asp("10.0.1.2",
                                     ["10.0.2.2", "10.0.3.2"]),
    "mpeg-monitor": mpeg_monitor_asp(),
    "mpeg-client": mpeg_client_asp(),
    "image-distiller": image_distiller_asp(),
}

addresses = st.sampled_from([HostAddr.parse(a) for a in (
    "10.0.1.1", "10.0.1.2", "10.0.2.2", "10.0.3.2", "224.1.1.1")])
ports = st.sampled_from([80, 7000, 8000, 8800, 9700, 9800, 9801, 1234,
                         40001])
payloads = st.one_of(
    st.binary(max_size=64),
    st.just(bytes([0]) + (7).to_bytes(4, "big") + b"\x01\x02" * 20),
    st.just(b"PLAY concert.mpg 9000\n"),
    st.just(b"QRY concert.mpg"),
    st.just(b"GET /x HTTP/1.0\r\n\r\n"),
)


@st.composite
def packets(draw):
    ip = IpHeader(src=draw(addresses), dst=draw(addresses))
    if draw(st.booleans()):
        transport = TcpHeader(src_port=draw(ports),
                              dst_port=draw(ports),
                              syn=draw(st.booleans()))
    else:
        transport = UdpHeader(src_port=draw(ports),
                              dst_port=draw(ports))
    from repro.net.packet import Packet

    return Packet(ip=ip, transport=transport, payload=draw(payloads))


@pytest.mark.parametrize("name", sorted(ASPS))
@given(batch=st.lists(packets(), min_size=1, max_size=12))
@settings(max_examples=25, deadline=None)
def test_accepted_asps_behave_as_verified(name, batch):
    info = typecheck(parse(ASPS[name]))
    interp = Interpreter(info)
    ctx = RecordingContext()

    channels = info.channel_overloads("network")
    states = {id(d): interp.initial_channel_state(d, ctx)
              for d in channels}
    ps = default_value(channels[0].protocol_state_type)

    for packet in batch:
        decl = next((d for d in channels
                     if codec.matches(packet, d.packet_type)), None)
        if decl is None:
            continue
        value = codec.decode(packet, decl.packet_type)
        before = len(ctx.emissions)
        # delivery promise: no exception escapes a verified channel
        ps, states[id(decl)] = interp.run_channel(
            decl, ps, states[id(decl)], value, ctx)
        emitted = [e for e in ctx.emissions[before:]
                   if e.kind in ("remote", "neighbor", "deliver")]
        # delivery promise: at least one exit per invocation
        assert emitted, f"{name}: packet {packet} was swallowed"
        # duplication promise: linear per hop
        assert len(emitted) <= 2, \
            f"{name}: {len(emitted)} emissions from one packet"
        # drops never happen in verified programs
        assert not any(e.kind == "drop" for e in ctx.emissions[before:])
