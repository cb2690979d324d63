"""The scale experiment: a ring of router clusters.

This is the workload behind the ``scale`` scenarios and ``scale_udp``
(bare forwarding, no ASP — the simulator core does nearly all the
work): ``n_clusters`` routers form a ring with ``ring_latency``
propagation delay; each router serves ``hosts_per_cluster - 1`` leaf
hosts over fast LAN links.  Hosts send UDP datagrams mostly to a
sibling in their own cluster, with every ``cross_every``-th datagram
going to the same-index host in the *next* cluster around the ring.

Routing is installed manually (``finalize(compute_routes=False)``):
all-pairs shortest paths are O(N²) and pointless for a topology this
regular.  Hosts default-route to their cluster router; routers hold
one route per local host and default clockwise around the ring.  No
datagram travels more than one ring hop, so the default TTL is never
at risk.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from ..net.node import Host
from ..net.topology import Network
from .result import ExperimentResult

#: the UDP port every scale host listens on
SCALE_PORT = 4000


class ScaleResult(ExperimentResult):
    _EXPERIMENT = "scale"


@dataclass
class _ScaleState:
    """Per-run harvest attached to the network as ``scale_state``."""

    #: (event key, receiver, src addr, payload) per delivered datagram
    deliveries: list[tuple] = field(default_factory=list)
    sent: int = 0


def build_scale_net(*, params: dict, seed: int) -> Network:
    """Build the ring-of-clusters topology and schedule its traffic."""
    n_clusters = int(params.get("n_clusters", 8))
    hosts_per_cluster = int(params.get("hosts_per_cluster", 4))
    packets_per_host = int(params.get("packets_per_host", 6))
    interval = float(params.get("interval", 0.02))
    cross_every = int(params.get("cross_every", 4))
    lan_latency = float(params.get("lan_latency", 0.001))
    ring_latency = float(params.get("ring_latency", 0.01))
    ring_queue = int(params.get("ring_queue", 256))
    bandwidth = float(params.get("bandwidth", 100e6))
    payload_bytes = int(params.get("payload_bytes", 64))
    warmup = float(params.get("warmup", 0.05))
    if n_clusters < 2 or hosts_per_cluster < 2:
        raise ValueError("scale topology needs >= 2 clusters of >= 2 "
                         "hosts (host 0 of each cluster is the router)")

    net = Network(seed=seed, name="scale")

    # -- topology: clusters in construction order, then the ring
    routers = []
    hosts: list[list[Host]] = []
    host_ifaces = {}  # router-side iface per host, for manual routes
    for c in range(n_clusters):
        router = net.add_router(f"c{c}r")
        routers.append(router)
        members = []
        for h in range(hosts_per_cluster - 1):
            host = net.add_host(f"c{c}h{h}")
            link = net.link(router, host, bandwidth=bandwidth,
                            latency=lan_latency)
            host_ifaces[host.name] = next(
                i for i in link.interfaces if i.node is router)
            members.append(host)
        hosts.append(members)
    ring_ifaces = {}  # clockwise iface per router
    for c in range(n_clusters):
        nxt = routers[(c + 1) % n_clusters]
        ring = net.link(routers[c], nxt, bandwidth=bandwidth,
                        latency=ring_latency, queue_limit=ring_queue)
        ring_ifaces[c] = next(
            i for i in ring.interfaces if i.node is routers[c])
    net.finalize(compute_routes=False)

    # -- manual hierarchical routes (see module docstring)
    for members in hosts:
        for host in members:
            host.routes.set_default(host.interfaces[0])
    for c, router in enumerate(routers):
        for host in hosts[c]:
            router.routes.add_route(host.address,
                                    host_ifaces[host.name])
        router.routes.set_default(ring_ifaces[c])

    # -- traffic, harvested through per-host delivery recorders
    state = _ScaleState()
    net.scale_state = state
    for c in range(n_clusters):
        for h, host in enumerate(hosts[c]):
            sock = net.udp(host).bind(SCALE_PORT)

            def on_datagram(payload, src, src_port, *, host=host):
                state.deliveries.append(
                    (host.sim.current_event_key, host.name, str(src),
                     payload))

            sock.on_datagram = on_datagram

            n_local = len(hosts[c])
            for k in range(packets_per_host):
                # stagger which tick is the cross tick by host index,
                # so a cluster's ring uplink is not hit by every host
                # at once
                if cross_every and (k + h) % cross_every == 0:
                    dst = hosts[(c + 1) % n_clusters][h]
                else:
                    dst = hosts[c][(h + 1) % n_local]
                payload = (f"{host.name}:{k}".encode()
                           .ljust(payload_bytes, b"."))

                def send(*, sock=sock, dst_addr=dst.address,
                         payload=payload):
                    sock.sendto(dst_addr, SCALE_PORT, payload)
                    state.sent += 1

                # scheduled under the host's context, so the event
                # key is the host's own
                host.sim.at(warmup + k * interval, send,
                            context=host.ctx)
    return net


def scale_until(params: dict) -> float:
    """When the run ends — a pure function of params."""
    packets = int(params.get("packets_per_host", 6))
    interval = float(params.get("interval", 0.02))
    warmup = float(params.get("warmup", 0.05))
    return warmup + packets * interval + 0.5


def delivery_stream_sha256(deliveries: list[tuple]) -> str:
    """One hash over the key-sorted delivery stream.

    Sorting by event key is the observation order (the keys are a
    pure function of topology and seed), so equal hashes mean every
    datagram arrived at the same host at the same event, with the same
    payload.
    """
    digest = hashlib.sha256()
    for (t, lp, lseq), name, src, payload in sorted(deliveries):
        digest.update(f"{t!r}/{lp}/{lseq} {name} {src} ".encode())
        digest.update(payload)
        digest.update(b"\n")
    return digest.hexdigest()


def run_scale_experiment(*, seed: int = 0, **params: Any) -> ScaleResult:
    """Run the scale workload and summarize it."""
    net = build_scale_net(params=params, seed=seed)
    net.run(until=scale_until(params))
    state = net.scale_state
    metrics = net.metrics_snapshot()
    forwarded = sum(value for key, value in metrics.items()
                    if key.startswith("node.")
                    and key.endswith(".forwarded")
                    and isinstance(value, (int, float)))
    return ScaleResult(
        seed=seed,
        params={key: params[key] for key in sorted(params)},
        metrics=metrics,
        figures={
            "nodes": len(net.nodes),
            "sent": state.sent,
            "delivered": len(state.deliveries),
            "forwarded": int(forwarded),
            "events": metrics.get("sim.events_processed"),
            "delivery_sha256": delivery_stream_sha256(state.deliveries),
        })
