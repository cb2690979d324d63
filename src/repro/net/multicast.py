"""IP multicast: a pre-established distribution tree per group.

The audio-broadcast application sends to a class-D group address (the
paper's application uses IP multicast on a LAN); the tree is the union
of the source's breadth-first paths to the joined receivers — the very
paths its unicast routes follow — installed as per-node forwarding
entries (``Node.multicast_routes``).
"""

from __future__ import annotations

from .addresses import HostAddr
from .node import Node
from .routing import adjacency, bfs_parents


def install_group(nodes: list[Node], group: HostAddr, source: Node,
                  receivers: list[Node]) -> None:
    """Join ``receivers`` to ``group`` and install the forwarding tree
    from ``source`` over the topology ``nodes`` are wired into."""
    if not group.is_multicast:
        raise ValueError(f"{group} is not a multicast address")
    adj = adjacency(nodes, live=False)
    parents = bfs_parents(adj, source)
    tree_edges: set[tuple[Node, Node]] = set()
    for child in receivers:
        child.join_group(group)
        if child not in parents:
            raise ValueError(f"no path from {source.name} to "
                             f"{child.name} for group {group}")
        while (parent := parents[child]) is not None:
            tree_edges.add((parent, child))
            child = parent
    # Per node on the tree, the interfaces leading to its tree children.
    for parent, child in sorted(tree_edges,
                                key=lambda e: (e[0].name, e[1].name)):
        routes = parent.multicast_routes.setdefault(group, [])
        if adj[parent][child] not in routes:
            routes.append(adj[parent][child])
