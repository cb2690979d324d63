"""The web overload drill: flash crowds and DDoS against the cluster.

The scenario matrix crosses an attack shape with the overload defense
(DESIGN §14):

* ``attack``: ``none`` (diurnal good traffic only), ``flash`` (an
  open-loop crowd spikes onto one hot document), ``syn`` (hosts
  without TCP stacks flood the victim's listen queue with SYNs that
  never complete a handshake), ``elephant`` (closed-loop clients pull
  a huge document through the bottleneck, monopolizing the server's
  serial CPU);
* ``shedding``: off — the historical stack, unbounded backlog, no
  in-network defense — or on: the gateway router runs the combined
  :func:`~repro.asps.overload.shedding_asp` under lifecycle-manager
  protection, and the endpoint degrades gracefully (bounded backlog,
  deadline-aware 503s, AIMD admission control).

The headline figure is **goodput**: completed requests per second of
the well-behaved clients during the attack window.  The benchmark
gates on goodput *retention* versus the no-attack baseline — with
shedding on the goods must keep >= 70% of their baseline through a
10x attack; with shedding off the same attack must collapse them
below 30% (the control that proves the attack is real).

Topology (fixed across every cell so the records compare): a gateway
router fronts one server host on a fast LAN; good clients, attackers
and crowd hosts hang off the gateway on access links.
"""

from __future__ import annotations

from typing import Any

from ..apps.http.client import HttpClientWorker, OpenLoopClient
from ..apps.http.server import HttpServer
from ..apps.http.trace import (Trace, TraceEntry, flood_times,
                               generate_trace, open_loop_arrivals)
from ..asps.overload import shedding_asp
from ..net.overload import AdmissionController
from ..net.packet import tcp_packet
from ..net.topology import Network
from ..obs import Observability
from ..runtime.deployment import Deployment
from ..runtime.lifecycle import LifecycleManager, LifecyclePolicy
from .result import ExperimentResult

ATTACKS = ("none", "flash", "syn", "elephant")

#: legitimate closed-loop clients, and hosts the attack comes from
N_GOOD = 4
N_ATTACKERS = 4

#: the elephant document: big enough that every response overruns the
#: shedder's per-destination byte budget, and each request costs the
#: server ~0.15 s of its serial CPU
ELEPHANT_PATH = "/elephant"
ELEPHANT_SIZE = 750_000

#: SYNs per second per flooding host
SYN_FLOOD_RATE = 150.0

#: the victim's listen-queue bound (a property of the server stack, so
#: it applies with shedding on AND off — the defense is in front of
#: it, not instead of it)
SYN_BACKLOG = 64


class WebResult(ExperimentResult):
    """Unified result of one web overload cell.  ``params``: the
    scenario coordinates; ``figures``: goodput, shed/retry/abandon
    accounting, defense counters and the lifecycle verdict."""

    _EXPERIMENT = "web"

    @property
    def goodput(self) -> float:
        return float(self.figures.get("goodput_rps", 0.0))


def run_web_experiment(*, attack: str = "none", shedding: bool = False,
                       duration: float = 10.0, warmup: float = 2.5,
                       seed: int = 17, obs: Observability | None = None,
                       poison_at: float | None = None) -> WebResult:
    """Run one cell of the overload matrix.

    ``poison_at`` arms the chaos drill: at that time the gateway's
    shedding ASP is poisoned (every invocation raises), which must trip
    the circuit breaker and degrade the router to standard IP without
    killing the run.  Only meaningful with ``shedding=True``.
    """
    if attack not in ATTACKS:
        raise ValueError(f"unknown attack {attack!r}; "
                         f"pick from {ATTACKS}")
    if warmup >= duration:
        raise ValueError("need warmup < duration")

    trace = generate_trace(4000, seed=seed)
    sizes = dict(trace.sizes)
    sizes[ELEPHANT_PATH] = ELEPHANT_SIZE

    net = Network(seed=seed, name="web", obs=obs)
    gw = net.add_router("gw")
    srv = net.add_host("srv")
    net.link(srv, gw, bandwidth=100e6, latency=0.0002)

    good_hosts = []
    for i in range(N_GOOD):
        host = net.add_host(f"good{i}")
        net.link(host, gw, bandwidth=10e6, latency=0.002)
        good_hosts.append(host)

    attacker_hosts = []
    if attack != "none":
        prefix = {"flash": "crowd", "syn": "syn",
                  "elephant": "eleph"}[attack]
        for i in range(N_ATTACKERS):
            host = net.add_host(f"{prefix}{i}")
            net.link(host, gw, bandwidth=10e6, latency=0.002)
            attacker_hosts.append(host)

    net.finalize()

    # -- the endpoint: graceful degradation only with shedding on ------
    admission = AdmissionController(
        rate=400.0, floor=20.0, ceiling=2000.0, increase=5.0,
        decrease=0.5, burst=50.0) if shedding else None
    server = HttpServer(net, srv, sizes,
                        max_backlog=64 if shedding else None,
                        request_deadline=2.0 if shedding else None,
                        admission=admission, syn_backlog=SYN_BACKLOG)

    # -- the network defense: the shedding ASP at the gateway ----------
    manager = None
    if shedding:
        policy = LifecyclePolicy(error_budget=5, budget_window=0.5,
                                 cooldown=0.4, rollback_after_trips=3)
        manager = LifecycleManager(net, deployment=Deployment(),
                                   policy=policy)
        manager.manage(gw)
        # Drop-capable programs rightly fail delivery verification;
        # this is the authenticated-privileged path, protected by the
        # lifecycle manager's circuit breaker instead.
        manager.rollout(shedding_asp(), [gw],
                        verify=False, force=True,
                        source_name="web-shedder")
    if poison_at is not None:
        net.faults.at(poison_at, net.faults.poison_asp, gw, 1)

    # -- good clients: closed loop with backoff/abandonment ------------
    goods: list[HttpClientWorker] = []
    for i, host in enumerate(good_hosts):
        worker = HttpClientWorker(net, host, srv.address, trace,
                                  trace_offset=i * 97)
        worker.start(at=0.01 + 0.003 * i)
        goods.append(worker)

    # -- the attack ----------------------------------------------------
    flood_sent = [0]
    attackers: list[HttpClientWorker] = []
    crowds: list[OpenLoopClient] = []
    if attack == "syn":
        # Raw SYNs from hosts with no TCP stack: the SYN-ACKs die
        # unanswered (no RST frees the victim's half-open slot), each
        # one pinning a listen-queue entry for the full retransmit
        # schedule — the classic resource-exhaustion flood.
        for host in attacker_hosts:
            times = flood_times(
                start=warmup, duration=duration - warmup,
                rate=SYN_FLOOD_RATE,
                entropy=host.sim.entropy(f"flood:{host.name}"))
            for k, t in enumerate(times):
                def fire(*, host=host, k=k) -> None:
                    host.ip_send(tcp_packet(
                        host.address, srv.address,
                        10_000 + k % 50_000, server.port,
                        syn=True, seq=k))
                    flood_sent[0] += 1

                host.sim.at(t, fire, context=host.ctx)
    elif attack == "elephant":
        elephant_trace = Trace(
            entries=[TraceEntry(ELEPHANT_PATH, ELEPHANT_SIZE)],
            sizes=sizes)
        for i, host in enumerate(attacker_hosts):
            worker = HttpClientWorker(net, host, srv.address,
                                      elephant_trace, max_retries=2)
            worker.start(at=warmup + 0.02 * i)
            attackers.append(worker)
    elif attack == "flash":
        for host in attacker_hosts:
            arrivals = open_loop_arrivals(
                trace, start=warmup, duration=duration - warmup,
                base_rate=15.0, spike_start=warmup + 1.0,
                spike_end=duration - 1.0, spike_multiplier=10.0,
                hot_fraction=0.8,
                entropy=host.sim.entropy(f"crowd:{host.name}"))
            crowd = OpenLoopClient(net, host, srv.address, arrivals)
            crowd.start()
            crowds.append(crowd)

    # -- observability: the overload.* scope ---------------------------
    def overload_metrics() -> dict[str, Any]:
        snap: dict[str, Any] = {
            "server": {"shed": server.shed, "expired": server.expired,
                       "served": server.requests_served},
            "syn_backlog_drops": net.tcp(srv).syn_backlog_drops,
            "good": {
                "completed": sum(len(w.completed) for w in goods),
                "retries": sum(w.retries for w in goods),
                "abandoned": sum(w.abandoned for w in goods),
            },
        }
        if admission is not None:
            snap["admission"] = admission.stats_dict()
        if gw.planp is not None:
            snap["gateway_dropped"] = gw.planp.stats.packets_dropped
        return snap

    net.obs.metrics.register("overload", overload_metrics)

    net.run(until=duration)

    # -- harvest: the goodput window is the attack span ----------------
    span = duration - warmup
    good_completed = sum(
        sum(1 for r in w.completed if warmup <= r.completed < duration)
        for w in goods)
    latencies = [r.latency for w in goods for r in w.completed
                 if warmup <= r.completed < duration]
    gateway_dropped = (gw.planp.stats.packets_dropped
                       if gw.planp is not None else 0)
    quarantined = len(manager.quarantined_nodes()) if manager else 0
    figures: dict[str, Any] = {
        "goodput_rps": good_completed / span,
        "good_completed": good_completed,
        "good_failures": sum(w.failures for w in goods),
        "good_retries": sum(w.retries for w in goods),
        "good_abandoned": sum(w.abandoned for w in goods),
        "good_shed_responses": sum(w.shed_responses for w in goods),
        "good_mean_latency_s": (sum(latencies) / len(latencies)
                                if latencies else 0.0),
        "server_served": server.requests_served,
        "server_shed": server.shed,
        "server_expired": server.expired,
        "syn_backlog_drops": net.tcp(srv).syn_backlog_drops,
        "gateway_dropped": gateway_dropped,
        "admission_refused": admission.refused if admission else 0,
        "flood_sent": flood_sent[0],
        "attacker_completed": sum(len(w.completed) for w in attackers),
        "attacker_abandoned": sum(w.abandoned for w in attackers),
        "crowd_completed": sum(len(c.completed) for c in crowds),
        "crowd_shed": sum(c.shed_responses for c in crowds),
        "crowd_failures": sum(c.failures for c in crowds),
        "trips": manager.trips if manager else 0,
        "quarantines": manager.quarantines if manager else 0,
        "rollbacks": manager.rollbacks if manager else 0,
        "quarantined_at_end": quarantined,
        "healthy": (all(m.up for m in net.media)
                    and all(node.up for node in net.nodes)
                    and quarantined == 0),
    }
    return WebResult(
        seed=seed,
        params={"attack": attack, "shedding": shedding,
                "n_good": N_GOOD, "n_attackers": N_ATTACKERS,
                "duration": duration, "warmup": warmup},
        metrics=net.metrics_snapshot(), figures=figures)


def overload_summary(events: list[dict]) -> dict:
    """Fold an event list into the ``obsdump --view overload`` view:
    endpoint shed and expiry decisions grouped per node and reason,
    plus the lifecycle verdict on the shedding ASP (trips /
    rollbacks), so one glance shows where the overload went and
    whether the defense itself stayed healthy."""
    totals = {"shed": 0, "expired": 0, "trips": 0, "rollbacks": 0}
    nodes: dict[str, dict] = {}

    def node(name: str) -> dict:
        return nodes.setdefault(name, {"shed": 0, "expired": 0,
                                       "reasons": {}})

    for event in events:
        kind = event.get("kind")
        if kind == "overload":
            entry = node(event.get("node", "?"))
            action = event.get("action", "")
            if action == "shed":
                totals["shed"] += 1
                entry["shed"] += 1
                reason = event.get("reason", "")
                entry["reasons"][reason] = (
                    entry["reasons"].get(reason, 0) + 1)
            elif action == "expired":
                totals["expired"] += 1
                entry["expired"] += 1
        elif kind == "quarantine" and event.get("action") == "trip":
            totals["trips"] += 1
        elif kind == "rollback" and event.get("action") == "start":
            totals["rollbacks"] += 1
    return {"totals": totals,
            "nodes": {name: nodes[name] for name in sorted(nodes)}}
