"""Execution-engine microbenchmark (paper §2.4's performance claims).

The paper measured a PLAN-P Ethernet bridge against the same program
written in C inside the kernel and found "no overhead"; against Java
(Harissa-compiled) the JIT output was twice as fast.  Here the bridge
workload is a flow-accounting forwarder; we compare per-packet cost of:

* the PLAN-P interpreter (the portable baseline);
* the closure-specialized JIT;
* the source-compiled JIT;
* a hand-written Python function ("built-in C") using the same context
  API.

The reproducible claim is *relative*: the JIT backends should sit within
a small factor of the built-in version, with the interpreter well
behind.  The three backends are timed by :func:`us_per_invocation`,
which ``planpc bench`` uses too; every result is wall clock, printed by
the report and never stored.
"""

from __future__ import annotations

import time

from ..interp.context import RecordingContext
from ..interp.values import PlanPTable, default_value
from ..jit.pipeline import Engine, make_engine
from ..lang import ast, parse, typecheck
from ..net.addresses import HostAddr
from ..net.packet import IpHeader, TcpHeader

#: every engine the comparison covers: the three backends plus the
#: hand-written function
ENGINES = ("interpreter", "closure", "source", "builtin")

#: distinct (src, dst) flows the packet stream cycles over
N_FLOWS = 16

#: The bridge-class workload: per-flow packet accounting + forwarding.
BRIDGE_ASP = """\
-- A flow-accounting bridge: counts packets per (src, dst) flow and
-- forwards everything (the paper's Ethernet-bridge benchmark class).

channel network(ps : int, ss : (int) hash_table, p : ip*tcp*blob)
initstate mkTable(1024) is
  let
    val iph : ip = #1 p
    val tcp : tcp = #2 p
    val key : host*host = (ipSrc(iph), ipDst(iph))
    val count : int = tableGetDefault(ss, key, 0)
  in
    (tableSet(ss, key, count + 1);
     OnRemote(network, p);
     (ps + 1, ss))
  end
"""


def make_bridge_packets() -> list[tuple]:
    """Packet values cycling over :data:`N_FLOWS` distinct flows."""
    packets = []
    for i in range(N_FLOWS):
        ip = IpHeader(src=HostAddr(0x0A000100 + i),
                      dst=HostAddr(0x0A000200 + (i * 7) % N_FLOWS))
        packets.append((ip, TcpHeader(src_port=40000 + i, dst_port=80),
                        b"x" * 64))
    return packets


def builtin_bridge(ctx, table: PlanPTable, ps: int,
                   packet: tuple) -> int:
    """The hand-written equivalent of BRIDGE_ASP (the 'C' version)."""
    iph = packet[0]
    key = (iph.src, iph.dst)
    count = table.get_default(key, 0)
    table.put(key, count + 1)
    ctx.emit_remote("network", packet)
    return ps + 1


class _NullContext(RecordingContext):
    """A context that discards emissions (so the benchmark measures the
    engine, not list growth)."""

    def emit_remote(self, channel: str, packet_value: tuple) -> None:
        pass


def us_per_invocation(engine: Engine, decl: ast.ChannelDecl,
                      packets: list[tuple], n: int) -> float:
    """Microseconds per ``engine.run_channel`` call: ``n`` invocations
    of ``decl`` from its initial state, cycling over ``packets``, with
    emissions discarded."""
    ctx = _NullContext()
    ps = default_value(decl.protocol_state_type)
    ss = engine.initial_channel_state(decl, ctx)
    n_packets = len(packets)
    start = time.perf_counter()
    for i in range(n):
        ps, ss = engine.run_channel(decl, ps, ss, packets[i % n_packets],
                                    ctx)
    return (time.perf_counter() - start) / n * 1e6


def run_engine_microbench(*, engine: str, n_packets: int = 20_000) -> float:
    """Microseconds per packet of ``n_packets`` bridge invocations on
    one engine: an execution backend name or ``"builtin"``.  The
    built-in version is called directly, as the paper's C one was, not
    through an engine's dispatch."""
    packets = make_bridge_packets()
    if engine != "builtin":
        info = typecheck(parse(BRIDGE_ASP))
        return us_per_invocation(make_engine(info, engine),
                                 info.channels["network"][0], packets,
                                 n_packets)
    ctx, table, ps = _NullContext(), PlanPTable(1024), 0
    n_flows = len(packets)
    start = time.perf_counter()
    for i in range(n_packets):
        ps = builtin_bridge(ctx, table, ps, packets[i % n_flows])
    return (time.perf_counter() - start) / n_packets * 1e6
