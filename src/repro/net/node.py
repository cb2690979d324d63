"""Network nodes: interfaces, hosts and routers.

The receive pipeline mirrors the paper's figure 1: an arriving packet
first meets the IP/PLAN-P layer — if a downloaded program's channel
matches the packet, the program *replaces* standard IP processing for it
(forwarding happens only if the program re-emits).  Unmatched packets and
nodes without a PLAN-P layer use standard processing: local delivery,
unicast forwarding via the routing table, or multicast forwarding along
the group tree.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .addresses import HostAddr
from .link import Medium
from .packet import Packet
from .routing import RoutingTable
from .sim import Simulator

if TYPE_CHECKING:
    from ..obs import Observability
    from ..runtime.planp_layer import PlanPLayer
    from .tcp import TcpStack
    from .udp import UdpStack

#: Default tier-3 batch-drain limit for routers: up to this many packets
#: queued by one scheduler activation run through a single specialized
#: batch loop.  Monkeypatch to 0 to force the per-packet path (the
#: batching-on/off determinism regression does exactly that).
ROUTER_BATCH_SIZE = 64


class Interface:
    """One attachment point of a node to a medium."""

    def __init__(self, node: "Node", medium: Medium, address: HostAddr):
        self.node = node
        self.medium = medium
        self.address = address
        self.name = f"{node.name}:{address}"
        medium.attach(self)

    def send(self, packet: Packet) -> None:
        self.medium.transmit(packet, self)

    def load_kbps(self) -> int:
        return self.medium.tx_queue(self).load_kbps()

    def bandwidth_kbps(self) -> int:
        return int(self.medium.bandwidth_bps // 1000)

    def queue_length(self) -> int:
        return self.medium.tx_queue(self).queue_length()

    def __repr__(self) -> str:
        return f"Interface({self.name})"


@dataclass
class NodeStats:
    received: int = 0
    delivered: int = 0
    forwarded: int = 0
    dropped_ttl: int = 0
    dropped_no_route: int = 0
    dropped_not_local: int = 0
    #: packets that arrived at (or were sent from) a crashed node
    dropped_down: int = 0
    asp_handled: int = 0
    sent: int = 0
    crashes: int = 0
    restarts: int = 0


class Node:
    """Common behaviour of hosts and routers."""

    forwarding = False
    #: tier-3 batch-drain limit for this node's PLAN-P layer (0 = the
    #: per-packet path; routers default to :data:`ROUTER_BATCH_SIZE`)
    batch_size = 0

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        #: this node's scheduling context (see the contract in
        #: :mod:`repro.net.sim`): everything the node schedules in
        #: response to a delivery is attributed here, so its event keys
        #: don't depend on traffic it never sees
        self.ctx = sim.context(f"node:{name}")
        self.interfaces: list[Interface] = []
        #: every interface's address value (``HostAddr.value``),
        #: maintained by :meth:`add_interface` — the "is this packet
        #: for me" test on the receive and send paths, O(1) however
        #: many interfaces a cluster router has, hashing an ``int``
        self._addresses: set[int] = set()
        self.routes = RoutingTable()
        self.stats = NodeStats()
        self.planp: "PlanPLayer | None" = None
        #: transport stacks, created on first use by ``Network.udp`` /
        #: ``Network.tcp``
        self.udp_stack: "UdpStack | None" = None
        self.tcp_stack: "TcpStack | None" = None
        #: is the node running?  A crashed node neither receives nor
        #: sends; see :meth:`crash` / :meth:`restart`.
        self.up = True
        #: run when the node crashes (services drop volatile state)
        self.crash_hooks: list[Callable[[], None]] = []
        #: run when the node restarts (a deployment service re-installs
        #: what the packet layer's manifest names)
        self.restart_hooks: list[Callable[[], None]] = []
        #: transport demultiplexing: IP proto number -> handler(packet)
        self._proto_handlers: dict[int, Callable[[Packet], None]] = {}
        #: multicast groups this node has joined (hosts)
        self.multicast_groups: set[HostAddr] = set()
        #: multicast forwarding: group -> interfaces on the group tree
        self.multicast_routes: dict[HostAddr, list[Interface]] = {}
        #: taps observe every delivered packet (test instrumentation)
        self.delivery_taps: list[Callable[[Packet], None]] = []
        #: taps observe every packet arriving on any interface, before
        #: PLAN-P processing (wire-level instrumentation)
        self.receive_taps: list[Callable[[Packet, Interface], None]] = []
        #: taps observe packets this node discards, with a reason
        #: (``"ttl"``, ``"no-route"``, ``"node-down"``) — segment
        #: traffic that is simply not addressed to a host is normal
        #: operation and is not tapped
        self.drop_taps: list[Callable[[Packet, str], None]] = []
        #: the owning network's observability scope (set by
        #: :class:`~repro.net.topology.Network`; None for bare nodes)
        self.obs: "Observability | None" = None

    # -- configuration ---------------------------------------------------------

    def add_interface(self, medium: Medium, address: HostAddr) -> Interface:
        iface = Interface(self, medium, address)
        self.interfaces.append(iface)
        self._addresses.add(address.value)
        return iface

    @property
    def addresses(self) -> list[HostAddr]:
        return [iface.address for iface in self.interfaces]

    @property
    def address(self) -> HostAddr:
        """The node's primary address (first interface)."""
        if not self.interfaces:
            raise RuntimeError(f"node {self.name} has no interfaces")
        return self.interfaces[0].address

    @property
    def entropy(self):
        """This node's private seeded random stream.  Node-local draws
        (ASP ``random_int``, gateway picks) use this instead of the
        shared ``sim.rng`` so the sequence seen by one node doesn't
        depend on unrelated traffic."""
        return self.ctx.entropy

    def register_proto(self, proto: int,
                       handler: Callable[[Packet], None]) -> None:
        if proto in self._proto_handlers:
            raise ValueError(f"proto {proto} already has a handler on "
                             f"{self.name}")
        self._proto_handlers[proto] = handler

    def join_group(self, group: HostAddr) -> None:
        if not group.is_multicast:
            raise ValueError(f"{group} is not a multicast address")
        self.multicast_groups.add(group)

    def leave_group(self, group: HostAddr) -> None:
        self.multicast_groups.discard(group)

    # -- observability --------------------------------------------------------------

    def _drop(self, packet: Packet, reason: str) -> None:
        """Report a node-level discard to the drop taps."""
        if self.drop_taps:
            for tap in self.drop_taps:
                tap(packet, reason)

    def stats_dict(self) -> dict[str, object]:
        """The node's counters — and its PLAN-P layer's and transport
        stacks', when present — as one nested dict for the metrics
        registry."""
        out: dict[str, object] = dataclasses.asdict(self.stats)
        out["up"] = self.up
        if self.planp is not None:
            out["planp"] = dataclasses.asdict(self.planp.stats)
        if self.tcp_stack is not None:
            out["tcp"] = self.tcp_stack.stats_dict()
        if self.udp_stack is not None:
            out["udp"] = {"datagrams_in": self.udp_stack.datagrams_in,
                          "datagrams_out": self.udp_stack.datagrams_out}
        return out

    # -- failure model --------------------------------------------------------------

    def crash(self) -> None:
        """Power-fail the node: delivery stops, NIC transmit buffers are
        flushed, and every crash hook runs so whatever lives on the node
        — its packet layer, its services — drops its volatile state.
        What those keep (the layer's manifest, routing configuration)
        is what :meth:`restart` rebuilds from.  Idempotent while down."""
        if not self.up:
            return
        self.up = False
        self.stats.crashes += 1
        for iface in self.interfaces:
            iface.medium.tx_queue(iface).drop_from(iface)
        for hook in self.crash_hooks:
            hook()

    def unless_crashed(self, packet: Packet, fn: Callable[..., None],
                       *args: object) -> Callable[[], None]:
        """``fn(*args)``, deferred on ``packet``'s behalf (work queued on
        a packet layer's CPU model).  A crash powers that queue off with
        the node: if the node has crashed in between, the packet is
        dropped as ``node-down`` instead — even if it is back up."""
        crashes = self.stats.crashes
        return lambda: (fn(*args) if self.stats.crashes == crashes
                        else self.drop_down(packet))

    def drop_down(self, packet: Packet) -> None:
        """Discard a packet because the node is (or was) down."""
        self.stats.dropped_down += 1
        self._drop(packet, "node-down")

    def restart(self) -> None:
        """Bring a crashed node back up (its interfaces re-attach to the
        same media and addresses).  Restart hooks run so services can
        rebuild from what survived the crash."""
        if self.up:
            return
        self.up = True
        self.stats.restarts += 1
        for hook in self.restart_hooks:
            hook()

    # -- receive path ---------------------------------------------------------------

    def receive(self, packet: Packet, iface: Interface) -> None:
        if not self.up:
            self.drop_down(packet)
            return
        # Re-root the ambient scheduling context: the delivery event ran
        # under the sending queue's context, but everything this node
        # schedules in response belongs to *its* context.  Every golden
        # digest pins the keys this produces.  The swap is two attribute
        # writes on the simulator, not a call: it runs once per packet
        # per node.
        sim = self.sim
        prev = sim._current
        sim._current = self.ctx
        try:
            self.stats.received += 1
            for tap in self.receive_taps:
                tap(packet, iface)
            planp = self.planp
            if planp is not None and self._planp_eligible(packet):
                hit = planp.match(packet)
                if hit is not None:
                    self.stats.asp_handled += 1
                    planp.process(packet, iface, hit)
                    return
            self.standard_processing(packet, iface)
        finally:
            sim._current = prev

    def _planp_eligible(self, packet: Packet) -> bool:
        """May the PLAN-P layer see this packet?  Routers see everything
        they would forward; a host's IP input path only sees packets
        addressed to it — unless its layer listens promiscuously (the
        MPEG capture ASP of paper §3.3 does)."""
        if self.forwarding:
            return True
        if self.planp is not None and self.planp.promiscuous:
            return True
        dst = packet.ip.dst
        return (dst.value in self._addresses or dst.is_broadcast
                or dst in self.multicast_groups)

    def standard_processing(self, packet: Packet,
                            iface: Interface | None) -> None:
        dst = packet.ip.dst
        if dst.is_multicast:
            if self.forwarding:
                self._forward_multicast(packet, iface)
            if dst in self.multicast_groups:
                self.deliver_local(packet)
            return
        if dst.value in self._addresses or dst.is_broadcast:
            self.deliver_local(packet)
            return
        if self.forwarding:
            self._forward_unicast(packet, iface)
            return
        # A host on a shared segment sees traffic that is not for it.
        self.stats.dropped_not_local += 1

    def _forward_unicast(self, packet: Packet,
                         in_iface: Interface | None = None) -> None:
        if packet.ip.ttl <= 1:
            self.stats.dropped_ttl += 1
            self._drop(packet, "ttl")
            return
        out = self.routes.lookup(packet.ip.dst)
        if out is None:
            self.stats.dropped_no_route += 1
            self._drop(packet, "no-route")
            return
        if out is in_iface:
            # The destination lives on the arrival segment: sending the
            # packet back out would duplicate segment traffic.
            self.stats.dropped_not_local += 1
            return
        self.stats.forwarded += 1
        out.send(packet.hop())

    def _forward_multicast(self, packet: Packet,
                           in_iface: Interface | None) -> None:
        if packet.ip.ttl <= 1:
            self.stats.dropped_ttl += 1
            self._drop(packet, "ttl")
            return
        out_ifaces = self.multicast_routes.get(packet.ip.dst, [])
        hopped = packet.hop()
        for out in out_ifaces:
            if out is in_iface:
                continue
            self.stats.forwarded += 1
            out.send(hopped.copy() if len(out_ifaces) > 1 else hopped)

    def deliver_local(self, packet: Packet) -> None:
        self.stats.delivered += 1
        for tap in self.delivery_taps:
            tap(packet)
        handler = self._proto_handlers.get(packet.ip.proto)
        if handler is not None:
            handler(packet)

    # -- send path ----------------------------------------------------------------------

    def ip_send(self, packet: Packet,
                exclude_iface: Interface | None = None,
                from_planp: bool = False) -> None:
        """Send a locally originated (or ASP-emitted) packet.

        ``exclude_iface`` suppresses multicast reflection back out the
        interface an ASP received the packet on.  ``from_planp`` marks
        re-emissions by the PLAN-P layer, which must not loop back into
        it; packets originated by local applications *do* traverse the
        IP/PLAN-P layer once, even when self-addressed (figure 1 places
        the layer inside the IP stack).
        """
        if not self.up:
            self.drop_down(packet)
            return
        self.stats.sent += 1
        dst = packet.ip.dst
        if dst.is_multicast:
            self._forward_multicast_from_self(packet, exclude_iface)
            if dst in self.multicast_groups:
                self.deliver_local(packet)
            return
        if dst.value in self._addresses:
            hit = (self.planp.match(packet)
                   if not from_planp and self.planp is not None else None)
            if hit is not None:
                self.stats.asp_handled += 1
                self.planp.process(packet, None, hit)
            else:
                self.deliver_local(packet)
            return
        out = self.routes.lookup(dst)
        if out is None:
            self.stats.dropped_no_route += 1
            self._drop(packet, "no-route")
            return
        if out is exclude_iface:
            # An ASP forwarding segment-local traffic it observed in
            # passing: the packet is already on its destination segment.
            self.stats.dropped_not_local += 1
            return
        out.send(packet)

    def _forward_multicast_from_self(
            self, packet: Packet,
            exclude_iface: Interface | None) -> None:
        out_ifaces = [i for i in self.multicast_routes.get(packet.ip.dst, [])
                      if i is not exclude_iface]
        for i, out in enumerate(out_ifaces):
            out.send(packet.copy() if i > 0 else packet)

    # -- monitoring (the ExecutionContext needs of ASPs) ----------------------------

    def iface_toward(self, dst: HostAddr) -> Interface | None:
        """The interface a packet to ``dst`` would leave through."""
        for iface in self.interfaces:
            if iface.address == dst:
                return iface
        out = self.routes.lookup(dst)
        if out is not None:
            return out
        # Multicast and local-segment destinations: use the tree or the
        # sole interface.
        if dst.is_multicast:
            tree = self.multicast_routes.get(dst)
            if tree:
                return tree[0]
        if len(self.interfaces) == 1:
            return self.interfaces[0]
        return None

    def link_load_toward(self, dst: HostAddr) -> int:
        iface = self.iface_toward(dst)
        return iface.load_kbps() if iface is not None else 0

    def link_bandwidth_toward(self, dst: HostAddr) -> int:
        iface = self.iface_toward(dst)
        return iface.bandwidth_kbps() if iface is not None else 0

    def queue_len_toward(self, dst: HostAddr) -> int:
        iface = self.iface_toward(dst)
        return iface.queue_length() if iface is not None else 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class Host(Node):
    """An end system: runs transports and applications, never forwards."""

    forwarding = False


class Router(Node):
    """A forwarding node; ASPs downloaded here adapt traffic in flight."""

    forwarding = True

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        # Instance attribute so tests can patch ROUTER_BATCH_SIZE before
        # building a topology (class-level Node.batch_size stays 0).
        self.batch_size = ROUTER_BATCH_SIZE
