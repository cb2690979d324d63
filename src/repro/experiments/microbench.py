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
behind.
"""

from __future__ import annotations

from ..interp.context import RecordingContext
from ..interp.values import PlanPTable
from ..jit.pipeline import make_engine
from ..lang import parse, typecheck
from ..net.addresses import HostAddr
from ..net.packet import IpHeader, TcpHeader
from ..obs import GLOBAL
from ..obs.spans import span
from .result import ExperimentResult

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


def make_bridge_packets(n_flows: int = N_FLOWS) -> list[tuple]:
    """Packet values cycling over ``n_flows`` distinct flows."""
    packets = []
    for i in range(n_flows):
        ip = IpHeader(src=HostAddr(0x0A000100 + i),
                      dst=HostAddr(0x0A000200 + (i * 7) % n_flows))
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


class MicrobenchResult(ExperimentResult):
    """Unified result of one engine microbenchmark.  ``params``:
    ``engine``, ``packets``; ``figures``: the wall-clock ``elapsed_s``
    (volatile: excluded from the canonical record)."""

    _EXPERIMENT = "microbench"
    _VOLATILE_FIGURES = ("elapsed_s",)

    @property
    def us_per_packet(self) -> float:
        return (self.figures["elapsed_s"] / self.params["packets"]
                * 1e6)

    @property
    def packets_per_second(self) -> float:
        elapsed = self.figures["elapsed_s"]
        return self.params["packets"] / elapsed if elapsed else 0.0


def _process_metrics() -> dict:
    """The microbenchmark has no Network of its own, so its snapshot is
    the process-wide registry — the scope ``Network.metrics_snapshot()``
    reports under the ``global.`` prefix.  Use the same prefix here so
    the determinism filter recognises it as process-scoped."""
    return {f"global.{key}": value
            for key, value in GLOBAL.snapshot().items()}


class _NullContext(RecordingContext):
    """A context that discards emissions (so the benchmark measures the
    engine, not list growth)."""

    def emit_remote(self, channel: str, packet_value: tuple) -> None:
        pass


def run_engine_microbench(*, engine: str, n_packets: int = 20_000,
                          seed: int = 0) -> MicrobenchResult:
    """Time ``n_packets`` channel invocations on one engine.

    ``engine`` is an execution backend name or ``"builtin"``.
    ``seed`` is accepted for the uniform harness signature; the
    workload is deterministic (cycling flows, no RNG), so it does not
    influence the measurement.
    """
    del seed  # seedless workload; accepted for signature uniformity
    engine_name = engine
    packets = make_bridge_packets()
    n_flows = len(packets)
    ctx = _NullContext()
    if engine_name == "builtin":
        table = PlanPTable(1024)
        ps = 0
        with span("microbench.builtin_ms") as timer:
            for i in range(n_packets):
                ps = builtin_bridge(ctx, table, ps, packets[i % n_flows])
    else:
        info = typecheck(parse(BRIDGE_ASP))
        engine = make_engine(info, engine_name, ctx)
        decl = info.channels["network"][0]
        ps: object = 0
        ss = engine.initial_channel_state(decl, ctx)
        with span(f"microbench.{engine_name}_ms") as timer:
            for i in range(n_packets):
                ps, ss = engine.run_channel(decl, ps, ss,
                                            packets[i % n_flows], ctx)
    return MicrobenchResult(
        params={"engine": engine_name, "packets": n_packets},
        metrics=_process_metrics(),
        figures={"elapsed_s": timer.elapsed_s})
