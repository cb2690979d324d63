"""The clustered-HTTP-server experiment (paper §3.2, figure 8).

Topology: client hosts on 10 Mbit access links, a gateway router, and
physical servers on a 100 Mbit server network — the paper's Ultra-1
cluster modulo the simulator substitution.

Four configurations reproduce the figure's curves and the surrounding
claims:

* ``single``   — clients hit one physical server directly (curve a);
* ``asp``      — the PLAN-P gateway balances over two servers (curve b);
* ``builtin``  — the native "C" gateway does the same (curve c);
* ``disjoint`` — clients split between two servers with no gateway
  (the "two servers with disjoint sets of clients" reference point).
"""

from __future__ import annotations

from typing import Callable

from ...asps.http import http_gateway_asp
from ...experiments.result import ExperimentResult
from ...net.topology import Network
from ...obs import Observability
from ...runtime.deployment import Deployment
from .client import HttpClientWorker
from .gateway_c import BuiltinGateway
from .server import HttpServer
from .trace import Trace, generate_trace

MODES = ("single", "asp", "builtin", "disjoint")


class HttpExperimentResult(ExperimentResult):
    """Unified result of one figure 8 configuration.

    ``params``: ``mode``, ``n_clients``, ``duration``, ``warmup``;
    ``figures``: ``throughput_rps``, ``mean_latency_s``,
    ``per_server_served``, ``completed``, ``failures`` and the
    wall-clock ``codegen_ms`` (volatile: excluded from the canonical
    record).
    """

    _EXPERIMENT = "http"
    _VOLATILE_FIGURES = ("codegen_ms",)

    @property
    def balance_ratio(self) -> float:
        """min/max served across servers (1.0 = perfectly balanced)."""
        counts = [c for c in self.figures["per_server_served"].values()
                  if c]
        if len(counts) < 2:
            return 1.0
        return min(counts) / max(counts)


#: Simulated per-packet CPU cost of the gateway, ASP and builtin alike
#: (the paper found "little or no difference" between them; the JIT
#: microbenchmark measures that equivalence directly).  This is what
#: makes the gateway a contention point, capping the cluster below the
#: capacity of two independent servers.
GATEWAY_CPU_S = 160e-6


def run_http_experiment(*, mode: str, n_clients: int,
                        duration: float = 30.0, warmup: float = 5.0,
                        n_servers: int = 2,
                        strategy: str = "modulo",
                        gateway_cpu_s: float = GATEWAY_CPU_S,
                        trace: Trace | None = None,
                        seed: int = 11,
                        obs: Observability | None = None,
                        tracer: Callable[[Network], object]
                        | None = None) -> HttpExperimentResult:
    """Run one figure 8 configuration at one offered load level."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; pick from {MODES}")
    if trace is None:
        trace = generate_trace(8000, seed=seed)

    net = Network(seed=seed, obs=obs)
    gateway = net.add_router("gateway")

    server_hosts = []
    for i in range(n_servers):
        host = net.add_host(f"server{i}")
        net.link(host, gateway, bandwidth=100e6, latency=0.0002)
        server_hosts.append(host)

    client_hosts = []
    for i in range(n_clients):
        host = net.add_host(f"client{i}")
        net.link(host, gateway, bandwidth=10e6, latency=0.0005)
        client_hosts.append(host)

    net.finalize()
    if tracer is not None:
        tracer(net)

    servers = [HttpServer(net, host, trace.sizes)
               for host in server_hosts]
    virtual = gateway.interfaces[0].address
    codegen_ms: float | None = None

    if mode == "asp":
        deployment = Deployment()
        record = deployment.install(
            http_gateway_asp(str(virtual),
                             [str(h.address) for h in server_hosts],
                             strategy=strategy),
            [gateway], source_name="http-gateway")
        codegen_ms = record.codegen_ms["gateway"]
        assert gateway.planp is not None
        gateway.planp.cpu.per_item_s = gateway_cpu_s
    elif mode == "builtin":
        builtin = BuiltinGateway(gateway, virtual,
                                 [h.address for h in server_hosts],
                                 strategy=strategy)
        builtin.cpu.per_item_s = gateway_cpu_s

    workers: list[HttpClientWorker] = []
    for i, host in enumerate(client_hosts):
        if mode == "single":
            target = server_hosts[0].address
        elif mode == "disjoint":
            target = server_hosts[i % n_servers].address
        else:
            target = virtual
        worker = HttpClientWorker(net, host, target, trace,
                                  trace_offset=i * 97)
        worker.start(at=0.001 * i)
        workers.append(worker)

    net.run(until=duration)

    window = (warmup, duration)
    completed = sum(
        sum(1 for r in w.completed if warmup <= r.completed < duration)
        for w in workers)
    latencies = [r.latency for w in workers for r in w.completed
                 if warmup <= r.completed < duration]
    return HttpExperimentResult(
        seed=seed,
        params={"mode": mode, "n_clients": n_clients,
                "duration": duration, "warmup": warmup},
        metrics=net.metrics_snapshot(),
        figures={
            "throughput_rps": completed / (duration - warmup),
            "mean_latency_s": (sum(latencies) / len(latencies)
                               if latencies else 0.0),
            "per_server_served": {s.host.name: s.requests_served
                                  for s in servers},
            "completed": completed,
            "failures": sum(w.failures for w in workers),
            "codegen_ms": codegen_ms,
        })


class Fig8SweepResult(ExperimentResult):
    """Unified result of the figure 8 sweep.  ``figures["curves"]``
    maps mode to a list of per-load summaries (client count,
    throughput, latency, balance)."""

    _EXPERIMENT = "http_fig8_sweep"

    def curve(self, mode: str) -> list[dict[str, object]]:
        return self.figures["curves"][mode]


def run_fig8_sweep(*, client_counts: list[int],
                   modes: tuple[str, ...] = ("single", "asp", "builtin"),
                   duration: float = 30.0,
                   seed: int = 11) -> dict[str, list[HttpExperimentResult]]:
    """The full figure 8 sweep: throughput vs offered load per mode."""
    trace = generate_trace(8000, seed=seed)
    curves: dict[str, list[HttpExperimentResult]] = {}
    for mode in modes:
        curves[mode] = [
            run_http_experiment(mode=mode, n_clients=n,
                                duration=duration,
                                trace=trace, seed=seed)
            for n in client_counts]
    return curves
