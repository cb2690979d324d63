"""The simulated network substrate (DESIGN.md §2: testbed substitution).

Names resolve on first access (:mod:`repro._lazy`)."""

from .._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, globals(), {
    "addresses": ("ANY_ADDR", "BROADCAST_ADDR", "AddressAllocator",
                  "HostAddr", "addr"),
    "faults": ("FaultController",),
    "link": ("Link", "Segment"),
    "monitor": ("LinkStats", "LoadMonitor"),
    "node": ("Host", "Interface", "Node", "NodeStats", "Router"),
    "packet": ("IpHeader", "Packet", "TcpHeader", "UdpHeader", "tcp_packet",
               "udp_packet"),
    "routing": ("RoutingTable", "compute_routes"),
    "sim": ("PeriodicTask", "Simulator"),
    "tcp": ("TcpConnection", "TcpListener", "TcpStack"),
    "topology": ("Network",),
    "trace": ("PacketTracer",),
    "udp": ("UdpSocket", "UdpStack"),
})
