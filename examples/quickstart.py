#!/usr/bin/env python3
"""Quickstart: write an ASP, verify it, JIT it, push packets through it.

This exercises the library's core pipeline without a network simulation:
parse -> type check -> the four safety analyses -> JIT compilation ->
channel execution against a recording context.

Run:  python examples/quickstart.py
"""

from repro.interp import RecordingContext
from repro.jit import load_program
from repro.net.addresses import HostAddr
from repro.net.packet import IpHeader, TcpHeader

# An ASP in PLAN-P: redirect web traffic for one host to a mirror, count
# everything else through untouched.
SOURCE = """
val mirror : host = 10.9.9.9
val origin : host = 10.1.1.1

channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  let
    val iph : ip = #1 p
    val tcp : tcp = #2 p
  in
    if tcpDst(tcp) = 80 andalso ipDst(iph) = origin then
      (OnRemote(network, (ipDestSet(iph, mirror), tcp, #3 p));
       (ps + 1, ss))
    else
      (OnRemote(network, p); (ps, ss))
  end
"""


def main() -> None:
    # load_program runs the full download path: parse, type check, the
    # four safety analyses of the paper, then JIT compilation.
    loaded = load_program(SOURCE, source_name="quickstart")
    print(f"verified + compiled {loaded.source_lines} lines "
          f"(cache_hit={loaded.cache_hit})")

    ctx = RecordingContext()
    channel = loaded.info.channels["network"][0]
    ps: object = 0
    ss = loaded.engine.initial_channel_state(channel, ctx)

    packets = [
        (IpHeader(src=HostAddr.parse("10.2.2.2"),
                  dst=HostAddr.parse("10.1.1.1")),
         TcpHeader(src_port=55555, dst_port=80), b"GET / HTTP/1.0"),
        (IpHeader(src=HostAddr.parse("10.2.2.2"),
                  dst=HostAddr.parse("10.1.1.1")),
         TcpHeader(src_port=55555, dst_port=22), b"ssh"),
    ]
    for packet in packets:
        ps, ss = loaded.engine.run_channel(channel, ps, ss, packet, ctx)

    for emission in ctx.emissions:
        ip = emission.packet_value[0]
        tcp = emission.packet_value[1]
        print(f"emitted on {emission.channel!r}: {ip.src} -> {ip.dst} "
              f"port {tcp.dst_port}")
    print(f"redirected connections counted by protocol state: {ps}")

    assert ps == 1
    assert str(ctx.emissions[0].packet_value[0].dst) == "10.9.9.9"
    assert str(ctx.emissions[1].packet_value[0].dst) == "10.1.1.1"
    print("quickstart OK")


if __name__ == "__main__":
    main()
