"""Controlled fault injection: link failures, node crashes, partitions.

The paper's deployment story (§2.1, §5) downloads ASPs into routers at
run time; any production-scale network of such routers crashes,
restarts, and sits behind lossy links.  :class:`FaultController` injects
exactly those failures into a :class:`~repro.net.topology.Network`, on a
scripted timeline if desired, and reconverges routing over the
surviving graph after every topology change — so experiments can drill
"link down during the broadcast" or "router crash mid-deploy" and still
be exactly reproducible under the simulator's seed.

Fault model:

* **Link/segment down** — the medium's ``up`` flag drops everything
  sent (and flushes its queues); frames mid-flight on the wire still
  arrive, frames mid-serialization are lost.
* **Node crash** — delivery stops, the node's NIC transmit buffers are
  flushed, and volatile state (the installed PLAN-P program and its
  engine) is lost.  The packet layer's manifest — what the node should
  be running — survives, and a
  :class:`repro.runtime.netdeploy.DeploymentService` replays it on
  restart.
* **Partition** — every medium spanning two of the given node groups
  goes down; :meth:`FaultController.heal` restores exactly those media.

Every injected fault and recovery is appended to :attr:`FaultController.log`
as ``(sim_time, description)`` so drills are observable after the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .link import Medium
from .routing import compute_routes

if TYPE_CHECKING:
    from .node import Node
    from .topology import Network


class _PoisonedEngine:
    """Engine proxy that fails every Nth invocation (fault drill).

    A per-node wrapper rather than a patch on the engine itself:
    compiled engines can be shared across nodes through the program
    cache, and poisoning one node must not poison its neighbors.
    """

    def __init__(self, inner, every: int):
        self.inner = inner
        self.every = max(1, every)
        self.calls = 0

    def initial_channel_state(self, decl, ctx):
        return self.inner.initial_channel_state(decl, ctx)

    def run_channel(self, decl, protocol_state, channel_state,
                    packet_value, ctx):
        self.calls += 1
        if self.calls % self.every == 0:
            from ..lang.errors import PlanPRuntimeError

            raise PlanPRuntimeError(
                f"poisoned ASP (drill): invocation {self.calls}")
        return self.inner.run_channel(decl, protocol_state,
                                      channel_state, packet_value, ctx)


class FaultController:
    """Injects faults into a network and reconverges routing."""

    def __init__(self, net: "Network"):
        self.net = net
        #: (sim_time, description) per injected fault / recovery
        self.log: list[tuple[float, str]] = []
        #: media taken down by :meth:`partition`, restored by :meth:`heal`
        self._partitioned: list[Medium] = []
        #: routing recomputations performed
        self.reconvergences = 0

    # -- link faults ------------------------------------------------------------

    def link_down(self, medium: Medium) -> None:
        """Take a link or segment down; traffic sent on it is dropped
        until :meth:`link_up`.  Routing reconverges around it."""
        if not medium.up:
            return
        medium.up = False
        self._note(f"link down {medium.name or id(medium)}")
        self.recompute_routes()

    def link_up(self, medium: Medium) -> None:
        """Restore a downed link or segment and reconverge routing."""
        if medium.up:
            return
        medium.up = True
        self._note(f"link up {medium.name or id(medium)}")
        self.recompute_routes()

    # -- node faults ------------------------------------------------------------

    def crash(self, node: "Node | str") -> None:
        """Crash a node (see :meth:`repro.net.node.Node.crash`) and
        route the survivors around it."""
        node = self._resolve(node)
        if not node.up:
            return
        node.crash()
        self._note(f"crash {node.name}")
        self.recompute_routes()

    def restart(self, node: "Node | str") -> None:
        """Restart a crashed node; its restart hooks run (a deployment
        service re-installs the layer's manifest) and routing
        reconverges to include it again."""
        node = self._resolve(node)
        if node.up:
            return
        node.restart()
        self._note(f"restart {node.name}")
        self.recompute_routes()

    # -- partitions -------------------------------------------------------------

    def partition(self, *groups: list["Node | str"]) -> list[Medium]:
        """Split the network: every medium attaching nodes from two
        different ``groups`` goes down.  Nodes not named in any group
        keep their connectivity.  Returns the media taken down."""
        index: dict[int, int] = {}
        for gi, group in enumerate(groups):
            for member in group:
                index[id(self._resolve(member))] = gi
        cut: list[Medium] = []
        for medium in self.net.media:
            sides = {index[id(iface.node)] for iface in medium.interfaces
                     if id(iface.node) in index}
            if len(sides) >= 2 and medium.up:
                medium.up = False
                cut.append(medium)
                self._partitioned.append(medium)
        self._note(f"partition cut {len(cut)} media")
        self.recompute_routes()
        return cut

    def heal(self) -> None:
        """Undo :meth:`partition`: restore exactly the media it cut."""
        restored = 0
        while self._partitioned:
            medium = self._partitioned.pop()
            if not medium.up:
                medium.up = True
                restored += 1
        self._note(f"heal restored {restored} media")
        self.recompute_routes()

    # -- ASP faults -------------------------------------------------------------

    def poison_asp(self, node: "Node | str", every: int = 3) -> None:
        """Corrupt a node's installed ASP: every ``every``-th channel
        invocation raises a runtime error (contained by the PLAN-P
        layer's fail-open path).  This is the drill primitive behind
        the poisoned-ASP chaos scenarios — it exercises error
        accounting, circuit breakers, and quarantine without needing a
        program that is *actually* wrong.  Undone by
        :meth:`unpoison_asp` (and implicitly by any reinstall, which
        replaces the engine)."""
        node = self._resolve(node)
        layer = node.planp
        if layer is None or layer.engine is None:
            raise ValueError(f"{node.name} has no installed ASP to poison")
        layer.engine = _PoisonedEngine(layer.engine, every)
        self._note(f"poison asp {node.name} every={every}")

    def unpoison_asp(self, node: "Node | str") -> None:
        """Restore a poisoned node's original engine."""
        node = self._resolve(node)
        layer = node.planp
        if layer is not None and isinstance(layer.engine, _PoisonedEngine):
            layer.engine = layer.engine.inner
            self._note(f"unpoison asp {node.name}")

    # -- scripting --------------------------------------------------------------

    def at(self, when: float, action: Callable, *args) -> None:
        """Schedule ``action(*args)`` at absolute simulated time
        ``when`` — the building block of scripted fault timelines::

            faults.at(2.0, faults.crash, "r1")
            faults.at(4.0, faults.restart, "r1")
        """
        self.net.sim.at(when, lambda: action(*args))

    def script(self, timeline: list[tuple]) -> None:
        """Schedule a whole drill: ``[(when, action, *args), ...]``."""
        for when, action, *args in timeline:
            self.at(when, action, *args)

    # -- internals --------------------------------------------------------------

    def recompute_routes(self) -> None:
        """Reconverge unicast routing over the surviving graph."""
        compute_routes(self.net.nodes)
        self.reconvergences += 1

    def _resolve(self, node: "Node | str") -> "Node":
        return self.net[node] if isinstance(node, str) else node

    def _note(self, text: str) -> None:
        self.log.append((self.net.sim.now, text))
        obs = getattr(self.net, "obs", None)
        if obs is not None:
            obs.events.emit("fault", detail=text)
            obs.metrics.counter("faults_total").inc()
