"""Static IP routing tables.

The paper assumes routing tables without cycles (that assumption is what
makes global termination provable), so routes here are computed offline
from the topology graph by shortest path and never change mid-run —
except in fault-injection tests, which recompute after removing nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, TypeVar

from .addresses import HostAddr

if TYPE_CHECKING:
    from .link import Medium
    from .node import Interface, Node


class RoutingTable:
    """Maps destination host addresses to outgoing interfaces.

    Keyed on the address's integer ``value``: a lookup per forwarded
    packet then hashes an ``int`` instead of calling the address
    dataclass's ``__hash__``.  :meth:`entries` still speaks
    :class:`HostAddr`."""

    def __init__(self):
        self._routes: dict[int, "Interface"] = {}
        self._default: "Interface | None" = None

    def add_route(self, dst: HostAddr, iface: "Interface") -> None:
        self._routes[dst.value] = iface

    def set_default(self, iface: "Interface") -> None:
        self._default = iface

    @property
    def default(self) -> "Interface | None":
        return self._default

    def lookup(self, dst: HostAddr) -> "Interface | None":
        route = self._routes.get(dst.value)
        if route is not None:
            return route
        return self._default

    def __len__(self) -> int:
        return len(self._routes)

    def entries(self) -> dict[HostAddr, "Interface"]:
        return {HostAddr(value): iface
                for value, iface in self._routes.items()}


Adjacency = dict["Node", dict["Node", "Interface"]]
T = TypeVar("T")


def adjacency(nodes: list["Node"], *, live: bool) -> Adjacency:
    """Who neighbours whom, through which interface, in which order.

    Two nodes on one medium are neighbours.  ``adj[a][b]`` is the
    interface ``a`` reaches ``b`` through: the first of ``a``'s own, in
    attachment order, whose medium ``b`` is on too.  ``adj[a]`` lists
    neighbours by the medium that first joins them to ``a`` — media in
    the order ``nodes`` first attach to them — and by name within one
    medium.  That order is the whole equal-cost tie-break of
    :func:`bfs_parents`, hence of every route and multicast tree.

    ``live=True`` leaves out crashed nodes and down media (routes
    reconverge onto what survives); ``live=False`` is the topology as
    wired (a multicast tree is provisioned once, not rerouted).
    """
    if live:
        nodes = [node for node in nodes if node.up]
    members: dict["Medium", set["Node"]] = {}
    for node in nodes:
        for iface in node.interfaces:
            if not live or iface.medium.up:
                members.setdefault(iface.medium, set()).add(node)

    def egress(a: "Node", b: "Node") -> "Interface":
        return next(iface for iface in a.interfaces
                    if b in members.get(iface.medium, ()))

    adj: Adjacency = {node: {} for node in nodes}
    for group in members.values():
        group = sorted(group, key=lambda node: node.name)
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if b not in adj[a]:
                    adj[a][b] = egress(a, b)
                    adj[b][a] = egress(b, a)
    return adj


def bfs_parents(adj: Mapping[T, Iterable[T]],
                source: T) -> dict[T, T | None]:
    """FIFO breadth-first search: every node reachable from ``source``
    mapped to the node it was discovered from (``source`` to ``None``),
    in discovery order.  Of equal-cost paths the one through the
    earliest-discovered parent wins, neighbours tried in ``adj`` order.
    Any graph will do: the verifier's cycle check walks its abstract
    states with it too."""
    parents: dict[T, T | None] = {source: None}
    frontier = [source]
    for node in frontier:
        for neighbour in adj[node]:
            if neighbour not in parents:
                parents[neighbour] = node
                frontier.append(neighbour)
    return parents


def compute_routes(nodes: list["Node"]) -> None:
    """Fill every node's routing table with shortest-path routes: one
    host route per (node, destination address), out of the interface
    toward the first hop of the node's breadth-first tree.
    Deterministic, and not by node name: of equal-cost paths the one
    whose media were attached first wins (see :func:`adjacency`).

    Fault-aware: crashed nodes (``up == False``) and down media are
    left out, so a recompute after an injected fault reconverges onto
    the surviving topology.  A default route installed by a topology
    builder (:meth:`RoutingTable.set_default`) is preserved across the
    recompute — or re-derived onto the node's first live interface if
    its old egress went down — rather than silently dropped with the
    rest of the table.
    """
    adj = adjacency(nodes, live=True)
    for node, neighbours in adj.items():
        node.routes = _recomputed_table(node, node.routes.default)
        out: dict["Node", "Interface"] = {}
        for target, parent in bfs_parents(adj, node).items():
            if parent is None:
                continue
            out[target] = neighbours[target] if parent is node else out[parent]
            for addr in target.addresses:
                node.routes.add_route(addr, out[target])


def _recomputed_table(node: "Node",
                      old_default: "Interface | None") -> RoutingTable:
    """A fresh table carrying over (or re-deriving) the default route."""
    table = RoutingTable()
    if old_default is not None:
        for iface in (old_default, *node.interfaces):
            if iface.medium.up:
                table.set_default(iface)
                break
    return table
