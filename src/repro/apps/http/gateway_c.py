"""The built-in "C" gateway baseline (paper §3.2, figure 8 curve c).

Implements exactly the load-balancing logic of the gateway ASP, but as
native host code plugged into the same IP/PLAN-P interception point of
the node — the reproduction's analogue of the paper's "built-in C
programmed server" compiled into the kernel.  Comparing its throughput
to the ASP's isolates the cost of the PLAN-P execution engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...net.addresses import HostAddr
from ...net.node import Interface, Node
from ...net.packet import Packet, TcpHeader
from ...net.sim import SerialResource
from .server import HTTP_PORT


@dataclass
class GatewayStats:
    requests_bound: int = 0
    packets_in: int = 0
    packets_out: int = 0


class BuiltinGateway:
    """Native NAT-style load balancer, installed as a node's packet
    layer (duck-typed to the PLAN-P layer interface)."""

    promiscuous = False

    def __init__(self, node: Node, virtual: HostAddr,
                 servers: list[HostAddr], *, port: int = HTTP_PORT,
                 strategy: str = "modulo"):
        if not servers:
            raise ValueError("need at least one server")
        self.node = node
        node.planp = self  # same interception point as a PLAN-P layer
        self.virtual = virtual
        self.servers = list(servers)
        self.server_set = set(servers)
        self.port = port
        self.strategy = strategy
        self.counter = 0
        self.bindings: dict[tuple[HostAddr, int], int] = {}
        #: the connection table is kernel memory: a crash loses it
        node.crash_hooks.append(self.bindings.clear)
        self.stats = GatewayStats()
        #: same CPU model knob as the PLAN-P layer, for fair comparison
        self.cpu = SerialResource(node.sim)

    # -- PlanPLayer-compatible interface ---------------------------------------

    def wants(self, packet: Packet, iface: Interface | None) -> bool:
        header = packet.transport
        if not isinstance(header, TcpHeader):
            return False
        if header.dst_port == self.port and packet.ip.dst == self.virtual:
            return True
        return (header.src_port == self.port
                and packet.ip.src in self.server_set)

    def process(self, packet: Packet, iface: Interface | None) -> None:
        if self.cpu.per_item_s > 0:
            self.cpu.submit(lambda: self._process_now(packet, iface))
        else:
            self._process_now(packet, iface)

    def _process_now(self, packet: Packet,
                     iface: Interface | None) -> None:
        header = packet.transport
        assert isinstance(header, TcpHeader)
        self.stats.packets_in += 1
        if header.dst_port == self.port and packet.ip.dst == self.virtual:
            out = self._bind_and_rewrite(packet, header)
        else:
            out = Packet(ip=packet.ip.with_src(self.virtual),
                         transport=header, payload=packet.payload,
                         created_at=packet.created_at)
        self.stats.packets_out += 1
        # Every processed packet is rewritten, so it routes normally.
        self.node.ip_send(out)

    def _bind_and_rewrite(self, packet: Packet,
                          header: TcpHeader) -> Packet:
        key = (packet.ip.src, header.src_port)
        index = self.bindings.get(key)
        if index is None:
            index = self._pick(header)
            self.bindings[key] = index
            self.counter += 1
            self.stats.requests_bound += 1
        server = self.servers[index]
        return Packet(ip=packet.ip.with_dst(server), transport=header,
                      payload=packet.payload,
                      created_at=packet.created_at)

    def _pick(self, header: TcpHeader) -> int:
        if self.strategy == "modulo":
            return self.counter % len(self.servers)
        if self.strategy == "srchash":
            return header.src_port % len(self.servers)
        return self.node.entropy.randrange(len(self.servers))
