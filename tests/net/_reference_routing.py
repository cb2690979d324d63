# FROZEN TEST ORACLE -- not product code.
#
# ``compute_routes`` (with its helpers) and ``GroupManager`` exactly as they
# stood in src/repro/net/routing.py and src/repro/net/multicast.py while
# both went through networkx (only the relative imports were made
# absolute, and multicast's own ``_iface_toward`` -- the copy without the
# ``up`` filter -- is suffixed ``_wired`` so the two can share a file).
# tests/net/test_routing_differential.py asserts that the breadth-first
# search in ``repro.net.routing`` installs the same tables and trees.
# Do not "fix" or speed this up: its value is that it does not change.
from __future__ import annotations

import pytest

nx = pytest.importorskip("networkx")

from repro.net.addresses import HostAddr  # noqa: E402
from repro.net.node import Interface, Node  # noqa: E402
from repro.net.routing import RoutingTable  # noqa: E402


def compute_routes(nodes: list["Node"]) -> None:
    """Fill every node's routing table with shortest-path routes.

    Builds the node adjacency graph from shared media, runs all-pairs
    shortest paths, and installs one host route per (node, destination
    address).  Deterministic: ties break on node name.

    Fault-aware: crashed nodes (``up == False``) and down media are
    excluded from the graph, so a recompute after an injected fault
    reconverges onto the surviving topology.  A default route installed
    by a topology builder (:meth:`RoutingTable.set_default`) is
    preserved across the recompute — or re-derived onto the node's
    first live interface if its old egress went down — rather than
    silently dropped with the rest of the table.
    """
    alive = [node for node in nodes if node.up]
    graph = nx.Graph()
    for node in alive:
        graph.add_node(node.name)
    by_name = {node.name: node for node in alive}

    # Adjacency: two live nodes sharing any up medium are neighbours.
    medium_members: dict[int, list] = {}
    for node in alive:
        for iface in node.interfaces:
            if getattr(iface.medium, "up", True):
                medium_members.setdefault(id(iface.medium),
                                          []).append(node)
    for members in medium_members.values():
        members = sorted(set(members), key=lambda n: n.name)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                graph.add_edge(a.name, b.name)

    paths = dict(nx.all_pairs_shortest_path(graph))

    for node in alive:
        node.routes = _recomputed_table(node, node.routes.default)
        for target in alive:
            if target is node:
                continue
            path = paths.get(node.name, {}).get(target.name)
            if path is None or len(path) < 2:
                continue
            next_hop = by_name[path[1]]
            iface = _iface_toward(node, next_hop)
            if iface is None:
                continue
            for addr in target.addresses:
                node.routes.add_route(addr, iface)


def _recomputed_table(node: "Node",
                      old_default: "Interface | None") -> RoutingTable:
    """A fresh table carrying over (or re-deriving) the default route."""
    table = RoutingTable()
    if old_default is None:
        return table
    if getattr(old_default.medium, "up", True):
        table.set_default(old_default)
        return table
    for iface in node.interfaces:
        if getattr(iface.medium, "up", True):
            table.set_default(iface)
            break
    return table


def _iface_toward(node: "Node", neighbor: "Node") -> "Interface | None":
    neighbor_media = {id(i.medium) for i in neighbor.interfaces
                      if getattr(i.medium, "up", True)}
    for iface in node.interfaces:
        if id(iface.medium) in neighbor_media:
            return iface
    return None


class GroupManager:
    """Builds multicast trees over a set of nodes."""

    def __init__(self, nodes: list[Node]):
        self._nodes = list(nodes)
        self._graph = self._adjacency()

    def _adjacency(self) -> nx.Graph:
        graph = nx.Graph()
        for node in self._nodes:
            graph.add_node(node.name)
        media: dict[int, list[Node]] = {}
        for node in self._nodes:
            for iface in node.interfaces:
                media.setdefault(id(iface.medium), []).append(node)
        for members in media.values():
            members = sorted(set(members), key=lambda n: n.name)
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    graph.add_edge(a.name, b.name)
        return graph

    def setup_group(self, group: HostAddr, source: Node,
                    receivers: list[Node]) -> None:
        """Join ``receivers`` to ``group`` and install the forwarding
        tree from ``source``."""
        if not group.is_multicast:
            raise ValueError(f"{group} is not a multicast address")
        by_name = {node.name: node for node in self._nodes}
        tree_edges: set[tuple[str, str]] = set()
        for receiver in receivers:
            receiver.join_group(group)
            path = nx.shortest_path(self._graph, source.name,
                                    receiver.name)
            for a, b in zip(path, path[1:]):
                tree_edges.add((a, b))

        # Install, per node on the tree, the interfaces leading to its
        # tree children.
        for a, b in sorted(tree_edges):
            node = by_name[a]
            child = by_name[b]
            iface = _iface_toward_wired(node, child)
            if iface is None:
                raise RuntimeError(
                    f"no interface from {a} toward {b} for group {group}")
            routes = node.multicast_routes.setdefault(group, [])
            if iface not in routes:
                routes.append(iface)


def _iface_toward_wired(node: Node, neighbor: Node) -> Interface | None:
    neighbor_media = {id(i.medium) for i in neighbor.interfaces}
    for iface in node.interfaces:
        if id(iface.medium) in neighbor_media:
            return iface
    return None
