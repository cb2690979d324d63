"""The breadth-first search against the networkx calls it replaced.

``repro.net.routing.compute_routes`` and ``repro.net.multicast
.install_group`` walk one FIFO search over one adjacency; the frozen
networkx versions in ``_reference_routing.py`` are the oracle.  Routes
feed every pinned record, so "equal" is strict: every node's host
routes and default leave through the same ``Interface`` objects, with
crashed nodes and downed media in play.  Multicast used a different
networkx search with its own tie-break; it is equal on the two paper
topologies and, everywhere, a shortest path that agrees with unicast.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Network
from repro.net.addresses import HostAddr
from repro.net.multicast import install_group
from repro.net.routing import RoutingTable, compute_routes

from . import _reference_routing as reference

GROUP = HostAddr.parse("224.7.7.7")


@st.composite
def topologies(draw, faults=True):
    """A wiring plan: 3–25 nodes whose names sort differently from their
    creation order, point-to-point links (repeats give parallel links),
    shared segments, and optionally crashed nodes, downed media and
    pre-set default routes."""
    n = draw(st.integers(3, 25))
    index = st.integers(0, n - 1)
    plan = {
        "names": [f"n{k:02d}" for k in draw(st.permutations(range(n)))],
        "routers": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        "media": draw(st.lists(
            st.one_of(
                st.tuples(index, st.integers(1, n - 1)).map(
                    lambda ad: (ad[0], (ad[0] + ad[1]) % n)),
                st.lists(index, min_size=1, max_size=6, unique=True)),
            min_size=1, max_size=min(2 * n, 30))),
        "crashed": [], "down": [], "defaults": {}}
    if faults:
        plan["crashed"] = draw(st.lists(index, max_size=4, unique=True))
        plan["down"] = draw(st.lists(
            st.integers(0, len(plan["media"]) - 1), max_size=4,
            unique=True))
        plan["defaults"] = draw(st.dictionaries(
            index, st.integers(0, 7), max_size=4))
    return plan


def build(plan):
    net = Network(seed=0)
    nodes = [net.add_router(name) if router else net.add_host(name)
             for name, router in zip(plan["names"], plan["routers"])]
    media = []
    for spec in plan["media"]:
        if isinstance(spec, tuple):
            media.append(net.link(nodes[spec[0]], nodes[spec[1]]))
        else:
            media.append(net.segment(f"seg{len(media)}"))
            for i in spec:
                net.attach(nodes[i], media[-1])
    defaults = {nodes[i]: nodes[i].interfaces[k % len(nodes[i].interfaces)]
                for i, k in plan["defaults"].items() if nodes[i].interfaces}
    for i in plan["crashed"]:
        nodes[i].crash()
    for i in plan["down"]:
        media[i].up = False
    return net, defaults


def tables(compute, net, defaults):
    """The interface each node's table picks for every address in the
    network, and its default, after ``compute`` — starting each node
    from an empty table carrying its pre-set default."""
    for node in net.nodes:
        node.routes = RoutingTable()
        if node in defaults:
            node.routes.set_default(defaults[node])
    compute(net.nodes)
    addresses = [iface.address for other in net.nodes
                 for iface in other.interfaces]
    return {node.name: ([node.routes.lookup(a) for a in addresses],
                        node.routes.default)
            for node in net.nodes}


def tree(install, net, source, receivers):
    """What ``install`` leaves on every node for ``GROUP``, from clean."""
    for node in net.nodes:
        node.multicast_routes.clear()
        node.multicast_groups.clear()
    install(net.nodes, GROUP, source, receivers)
    return {node.name: (node.multicast_routes.get(GROUP),
                        GROUP in node.multicast_groups)
            for node in net.nodes}


def reference_install(nodes, group, source, receivers):
    reference.GroupManager(nodes).setup_group(group, source, receivers)


# -- unicast ---------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(topologies())
def test_routes_equal_the_reference(plan):
    net, defaults = build(plan)
    want = tables(reference.compute_routes, net, defaults)
    assert tables(compute_routes, net, defaults) == want


def test_routes_equal_the_reference_after_each_fault_of_a_timeline():
    """One topology, faults accumulating and healing: every recompute
    lands where the reference lands."""
    plan = {"names": [f"n{k}" for k in (3, 0, 5, 1, 4, 2)],
            "routers": [True] * 6,
            "media": [(0, 2), (0, 1), (2, 3), (1, 3), (3, 4), (3, 4),
                      [1, 4, 5], (5, 0)],
            "crashed": [], "down": [], "defaults": {4: 1}}
    net, defaults = build(plan)
    media = net.media
    steps = [lambda: None,
             lambda: setattr(media[0], "up", False),
             lambda: net.nodes[3].crash(),
             lambda: setattr(media[6], "up", False),
             lambda: net.nodes[3].restart(),
             lambda: setattr(media[0], "up", True)]
    for step in steps:
        step()
        want = tables(reference.compute_routes, net, defaults)
        assert tables(compute_routes, net, defaults) == want


# -- multicast -------------------------------------------------------------------

def audio_topology():
    """Figure 5, wired as ``run_audio_experiment`` wires it."""
    net = Network(seed=0)
    source, router, client, loadgen, sink = (
        net.add_host("audio-source"), net.add_router("router"),
        net.add_host("client"), net.add_host("loadgen"),
        net.add_host("sink"))
    net.link(source, router)
    segment = net.segment("client-lan")
    for node in (router, client, loadgen, sink):
        net.attach(node, segment)
    return net, source, [client]


def mpeg_topology():
    """Paper §3.3, wired as ``run_mpeg_experiment`` wires it; the stream
    as a group from the server to every viewer."""
    net = Network(seed=0)
    server, router, monitor = (net.add_host("video-server"),
                               net.add_router("router"),
                               net.add_host("monitor"))
    viewers = [net.add_host(f"viewer{i}") for i in range(3)]
    net.link(server, router)
    segment = net.segment("viewer-lan")
    for node in (router, monitor, *viewers):
        net.attach(node, segment)
    return net, server, viewers


@pytest.mark.parametrize("topology", [audio_topology, mpeg_topology])
def test_paper_trees_equal_the_reference(topology):
    net, source, receivers = topology()
    want = tree(reference_install, net, source, receivers)
    assert tree(install_group, net, source, receivers) == want
    assert any(routes for routes, _joined in want.values())


@settings(max_examples=100, deadline=None)
@given(topologies(faults=False), st.data())
def test_each_tree_path_is_a_shortest_path_agreeing_with_unicast(plan, data):
    net, _defaults = build(plan)
    net.finalize()
    graph = reference.GroupManager(net.nodes)._graph
    source = data.draw(st.sampled_from(net.nodes))
    for receiver in net.nodes:
        if receiver is source:
            continue
        if not reference.nx.has_path(graph, source.name, receiver.name):
            with pytest.raises(ValueError, match="no path"):
                install_group(net.nodes, GROUP, source, [receiver])
            continue
        installed = tree(install_group, net, source, [receiver])
        # One receiver: the tree is its path, one egress per node on it.
        hops = [name for name, (routes, _joined) in installed.items()
                if routes]
        assert all(len(installed[name][0]) == 1 for name in hops)
        assert len(hops) == reference.nx.shortest_path_length(
            graph, source.name, receiver.name)
        # It leaves the source where the source's unicast route does…
        assert source.multicast_routes[GROUP] == [
            source.routes.lookup(receiver.address)]
        # …and is connected: each egress leads to exactly one next stop.
        at, seen = source, {source}
        for _ in hops:
            (iface,) = at.multicast_routes[GROUP]
            (at,) = {i.node for i in iface.medium.interfaces
                     if i.node not in seen and (
                         i.node is receiver or installed[i.node.name][0])}
            seen.add(at)
        assert at is receiver and installed[receiver.name][1]
