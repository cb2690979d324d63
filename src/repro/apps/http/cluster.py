"""The extensible cluster-server toolkit (paper §5, implemented).

"We want to enrich the HTTP cluster server experiment with
fault-tolerance capabilities and several load-balancing algorithms.
This can lead to the development of a toolkit that helps the building
and configuration of extensible cluster servers."

The toolkit's pieces:

* :class:`HealthResponder` — a trivial UDP health endpoint on each
  physical server;
* :class:`ClusterManager` — probes the servers, and whenever the alive
  set changes, *regenerates* the gateway ASP for the surviving servers
  and re-deploys it over the network (via
  :class:`repro.runtime.netdeploy.DeploymentManager`) — configuration
  changes are just new PLAN-P programs, the §3.2 configurability claim
  made operational.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...asps.http import http_gateway_asp
from ...net.addresses import HostAddr
from ...net.node import Host, Router
from ...net.topology import Network
from ...runtime.netdeploy import DeploymentManager, DeploymentService

HEALTH_PORT = 9950
#: seconds between health probes, and how long a PONG may take
CHECK_INTERVAL_S = 1.0
PROBE_TIMEOUT_S = 0.5


class HealthResponder:
    """Answers PING with PONG until stopped (a dead server's responder
    is stopped, simulating the crash)."""

    def __init__(self, net: Network, host: Host,
                 port: int = HEALTH_PORT):
        self.net = net
        self.host = host
        self.alive = True
        self.pings_answered = 0
        self._socket = net.udp(host).bind(port)
        self._socket.on_datagram = self._on_ping

    def _on_ping(self, payload: bytes, src: HostAddr,
                 src_port: int) -> None:
        if self.alive and payload == b"PING":
            self.pings_answered += 1
            self._socket.sendto(src, src_port, b"PONG")

    def stop(self) -> None:
        """Simulate a crash: stop answering."""
        self.alive = False


@dataclass
class ClusterEvent:
    at: float
    alive: tuple[str, ...]
    generation: int


class ClusterManager:
    """Keeps the gateway ASP in sync with the set of live servers."""

    def __init__(self, net: Network, manager_host: Host,
                 gateway: Router, virtual: HostAddr,
                 servers: list[Host], *,
                 health_port: int = HEALTH_PORT):
        self.net = net
        self.gateway = gateway
        self.virtual = virtual
        self.servers = list(servers)
        self.health_port = health_port
        self.generation = 0
        self.events: list[ClusterEvent] = []
        self.alive: set[str] = {s.name for s in servers}

        #: the gateway learns programs over the network
        self._service = DeploymentService(net, gateway)
        self._manager = DeploymentManager(net, manager_host)
        self._probe_socket = net.udp(manager_host).bind()
        self._probe_socket.on_datagram = self._on_pong
        self._answers: set[HostAddr] = set()
        self._deploy_current()
        net.sim.every(CHECK_INTERVAL_S, self._probe)

    # -- health checking ----------------------------------------------------------

    def _probe(self) -> None:
        self._answers = set()
        # Probe everything: dead servers that come back are re-admitted.
        for server in self.servers:
            self._probe_socket.sendto(server.address, self.health_port,
                                      b"PING")
        self.net.sim.schedule(PROBE_TIMEOUT_S, self._evaluate)

    def _on_pong(self, payload: bytes, src: HostAddr,
                 src_port: int) -> None:
        if payload == b"PONG":
            self._answers.add(src)

    def _evaluate(self) -> None:
        answered = {s.name for s in self.servers
                    if s.address in self._answers}
        if answered != self.alive and answered:
            self.alive = answered
            self._deploy_current()

    # -- (re)configuration ----------------------------------------------------------

    def _deploy_current(self) -> None:
        live = [s for s in self.servers if s.name in self.alive]
        if not live:
            return  # nothing to balance onto; keep the last program
        source = http_gateway_asp(
            str(self.virtual), [str(s.address) for s in live])
        self.generation += 1
        self._manager.push(source, [self.gateway.address],
                           name=f"gw-gen{self.generation}")
        self.events.append(ClusterEvent(
            at=self.net.sim.now,
            alive=tuple(sorted(self.alive)),
            generation=self.generation))
