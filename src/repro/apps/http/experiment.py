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
from .trace import generate_trace

MODES = ("single", "asp", "builtin", "disjoint")


class HttpExperimentResult(ExperimentResult):
    """Unified result of one figure 8 configuration.

    ``params``: ``mode``, ``n_clients``, ``duration``, ``warmup``;
    ``figures``: ``throughput_rps``, ``mean_latency_s``,
    ``per_server_served``, ``completed``, ``failures``.
    """

    _EXPERIMENT = "http"

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
#: physical servers behind the gateway (the paper's two Ultra-1s)
N_SERVERS = 2


def run_http_experiment(*, mode: str, n_clients: int,
                        duration: float = 30.0, warmup: float = 5.0,
                        seed: int = 11,
                        obs: Observability | None = None,
                        tracer: Callable[[Network], object]
                        | None = None) -> HttpExperimentResult:
    """Run one figure 8 configuration at one offered load level."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; pick from {MODES}")
    trace = generate_trace(8000, seed=seed)

    net = Network(seed=seed, obs=obs)
    gateway = net.add_router("gateway")

    server_hosts = []
    for i in range(N_SERVERS):
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

    if mode == "asp":
        Deployment().install(
            http_gateway_asp(str(virtual),
                             [str(h.address) for h in server_hosts]),
            [gateway], source_name="http-gateway")
        assert gateway.planp is not None
        gateway.planp.cpu.per_item_s = GATEWAY_CPU_S
    elif mode == "builtin":
        builtin = BuiltinGateway(gateway, virtual,
                                 [h.address for h in server_hosts])
        builtin.cpu.per_item_s = GATEWAY_CPU_S

    workers: list[HttpClientWorker] = []
    for i, host in enumerate(client_hosts):
        if mode == "single":
            target = server_hosts[0].address
        elif mode == "disjoint":
            target = server_hosts[i % N_SERVERS].address
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
        })

