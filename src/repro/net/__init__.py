"""The simulated network substrate (DESIGN.md §2: testbed substitution)."""

from .addresses import ANY_ADDR, BROADCAST_ADDR, AddressAllocator, HostAddr, addr
from .faults import FaultController
from .link import Link, Segment
from .monitor import LinkStats, LoadMonitor
from .node import Host, Interface, Node, NodeStats, Router
from .packet import (IpHeader, Packet, TcpHeader, UdpHeader, tcp_packet,
                     udp_packet)
from .routing import RoutingTable, compute_routes
from .sim import PeriodicTask, Simulator
from .tcp import TcpConnection, TcpListener, TcpStack
from .topology import Network
from .trace import PacketTracer
from .udp import UdpSocket, UdpStack

__all__ = [
    "ANY_ADDR",
    "BROADCAST_ADDR",
    "AddressAllocator",
    "FaultController",
    "Host",
    "HostAddr",
    "Interface",
    "IpHeader",
    "Link",
    "LinkStats",
    "LoadMonitor",
    "Network",
    "PacketTracer",
    "Node",
    "NodeStats",
    "Packet",
    "PeriodicTask",
    "Router",
    "RoutingTable",
    "Segment",
    "Simulator",
    "TcpConnection",
    "TcpHeader",
    "TcpListener",
    "TcpStack",
    "UdpHeader",
    "UdpSocket",
    "UdpStack",
    "addr",
    "compute_routes",
    "tcp_packet",
    "udp_packet",
]
