"""ASP lifecycle management: staged rollout, quarantine, rollback.

The paper's premise is hot-loading programs into live routers (§2.1,
§5); this module is the operational defense against a *bad* one.  A
:class:`LifecycleManager` installs through one
:class:`~repro.runtime.deployment.Deployment` and adds:

* **Versioned install history.**  A hook inside
  :meth:`PlanPLayer.install_loaded` numbers every install on a managed
  node, whatever path made it, as a :class:`Generation`; the outgoing
  generation is snapshotted *with* its protocol and channel state, so a
  rollback resumes the previous program where it left off.

* **Staged, health-gated rollout.**  :meth:`LifecycleManager.rollout`
  asks the one admission gate (``ProgramCache.check_verified``), then
  proves the candidate **wire-compatible** with every generation the
  target fleet runs — an incompatible one is **vetoed** before any
  canary packet flows (``force=True`` is the operator override).  It
  installs on a canary subset, holds ``health_window`` seconds, and
  judges each canary on breaker state, program identity and errors
  since the install; silent canaries extend the window rather than be
  judged blind::

      STAGED ──> CANARY ──> PROMOTED
                    └─────> ABORTED  (canaries rolled back)

* **Error-budget circuit breaker.**  More than ``error_budget`` runtime
  errors inside ``budget_window`` seconds trip a node's
  :class:`CircuitBreaker`: the ASP is **quarantined** (uninstalled —
  standard IP processing, and nothing for a restart to bring back).
  After ``cooldown`` the same generation is reinstalled for a retrial,
  or, once it has tripped ``rollback_after_trips`` times on a node, it
  is **rolled back** across the fleet::

      CLOSED ──(budget exceeded)──> OPEN ──(cooldown)──> HALF-OPEN
         ^                                                   │
         └──(probation_packets clean)────────────────────────┤
                          OPEN <──(any error during retrial)─┘

  Two rules: *quarantine is the open breaker*, and *any install ends
  it* — a new program closes the breaker, the same program half-opens
  it (a reinstall during the cool-down runs on probation).

``rollout`` / ``quarantine`` / ``rollback`` events and a ``lifecycle.*``
metrics block make every step observable; all timing runs on the
simulator clock, so drills are exactly reproducible under a seed.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..jit.pipeline import DEFAULT_BACKEND, LoadedProgram
from ..lang.typechecker import ProgramInfo
from ..net.node import Node
from ..net.topology import Network
from .deployment import Deployment
from .planp_layer import PlanPLayer, ProgramSnapshot

#: lower bound on the canary subset size
MIN_CANARY = 1
#: packets the canaries must process before the gate will promote; a
#: silent canary extends the window instead of being judged blind
MIN_CANARY_PACKETS = 1
#: window extensions granted to a silent canary before aborting
MAX_EXTENSIONS = 3


class RolloutState(enum.Enum):
    STAGED = "staged"
    CANARY = "canary"
    PROMOTED = "promoted"
    ABORTED = "aborted"


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class LifecyclePolicy:
    """Every knob of the lifecycle manager (times in sim-seconds)."""

    #: fraction of the fleet used as canaries (at least one node)
    canary_fraction: float = 0.25
    #: how long canaries hold before the health gate judges them
    health_window: float = 1.0
    #: runtime errors tolerated within ``budget_window`` before the
    #: breaker trips (the error budget)
    error_budget: int = 5
    #: length of the breaker's sliding sim-time window
    budget_window: float = 1.0
    #: OPEN hold before a half-open retrial (or rollback)
    cooldown: float = 0.5
    #: clean packets a half-open ASP must process to close the breaker
    probation_packets: int = 50
    #: trips of one generation on one node before the manager stops
    #: retrying and rolls the fleet back instead
    rollback_after_trips: int = 2
    #: statically prove gen-N ↔ gen-N+1 wire compatibility before a
    #: canary window opens; an incompatible candidate is vetoed
    #: (``force=True`` overrides)
    wire_check: bool = True


class CircuitBreaker:
    """Error-budget circuit breaker over a sliding sim-time window.

    Pure mechanism: it owns no node and schedules nothing — it just
    answers "did this error exhaust the budget?" against an injected
    clock.  The window is exact, not bucketed, and **closed**: an error
    at time ``t`` still counts at ``t + window`` (the window is the
    inclusive interval ``[now - window, now]``), so the breaker trips
    at the first error that makes some such window hold more than
    ``budget`` errors, and never trips otherwise.
    """

    def __init__(self, *, budget: int, window: float,
                 probation: int, clock: Callable[[], float]):
        if budget < 0:
            raise ValueError(f"negative error budget {budget}")
        if window <= 0:
            raise ValueError(f"non-positive window {window}")
        self.budget = budget
        self.window = window
        self.probation = probation
        self.clock = clock
        self.state = BreakerState.CLOSED
        self.trips = 0
        self.opened_at: float | None = None
        self._errors: deque[float] = deque()
        self._ok_run = 0

    def _expire(self, now: float) -> None:
        # Strict <: an error exactly ``window`` seconds old is still
        # inside the closed window and must keep counting.
        horizon = now - self.window
        errors = self._errors
        while errors and errors[0] < horizon:
            errors.popleft()

    def record_error(self) -> bool:
        """Account one runtime error; True when it trips the breaker.

        CLOSED trips when the window exceeds the budget; HALF_OPEN
        trips on any error (the retrial failed); OPEN absorbs errors
        from packets already in flight without re-tripping.
        """
        if self.state is BreakerState.OPEN:
            return False
        now = self.clock()
        if self.state is BreakerState.HALF_OPEN:
            self._trip(now)
            return True
        self._errors.append(now)
        self._expire(now)
        if len(self._errors) > self.budget:
            self._trip(now)
            return True
        return False

    def record_ok(self) -> bool:
        """Account one clean packet; True when a half-open probation
        completes and the breaker closes."""
        if self.state is not BreakerState.HALF_OPEN:
            return False
        self._ok_run += 1
        if self._ok_run >= self.probation:
            self.close()
            return True
        return False

    def _trip(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self.trips += 1
        self.opened_at = now
        self._errors.clear()

    def half_open(self) -> None:
        """Begin a retrial: traffic flows again, but one error re-trips."""
        self.state = BreakerState.HALF_OPEN
        self._ok_run = 0

    def close(self) -> None:
        """Fully reset: fresh budget, trip history kept."""
        self.state = BreakerState.CLOSED
        self._errors.clear()
        self._ok_run = 0
        self.opened_at = None


@dataclass
class Generation:
    """One entry of a node's versioned install history."""

    number: int
    #: the install that started it: what a retrial or a rollback
    #: reinstalls, and the wire summary the wire gate compares
    loaded: LoadedProgram
    #: program + live state captured when a newer generation superseded
    #: this one (what a rollback restores)
    snapshot: ProgramSnapshot | None = None


class NodeLifecycle:
    """Per-node lifecycle state: install history + circuit breaker."""

    def __init__(self, manager: "LifecycleManager", node: Node,
                 layer: PlanPLayer):
        self.manager = manager
        self.node = node
        self.layer = layer
        policy = manager.policy
        self.breaker = CircuitBreaker(
            budget=policy.error_budget, window=policy.budget_window,
            probation=policy.probation_packets,
            clock=lambda: manager.net.sim.now)
        #: generation-numbered install history, oldest first
        self.generations: list[Generation] = []
        #: generations removed by rollback (audit trail)
        self.rolled_back: list[Generation] = []

    @property
    def current(self) -> Generation | None:
        return self.generations[-1] if self.generations else None

    @property
    def quarantined(self) -> bool:
        """Quarantine is the open breaker (the program is uninstalled)."""
        return self.breaker.state is BreakerState.OPEN

    # -- install hooks (called from PlanPLayer.install_loaded) -----------------

    def before_install(self, loaded: LoadedProgram) -> None:
        current = self.current
        if (current is not None and self.layer.loaded is not None
                and loaded.source_sha != current.loaded.source_sha):
            current.snapshot = self.layer.snapshot_program()

    def after_install(self, loaded: LoadedProgram) -> None:
        """Any install ends a quarantine: a new generation closes the
        breaker, the running one comes back on probation."""
        current = self.current
        if (current is not None
                and current.loaded.source_sha == loaded.source_sha):
            # Re-install of the running generation (half-open retrial,
            # manifest replay after a restart, a re-push): same version,
            # no new history entry — but its state snapshot is now stale.
            current.snapshot = None
            if self.quarantined:
                self.breaker.half_open()
            return
        number = len(self.generations) + len(self.rolled_back) + 1
        self.generations.append(Generation(number, loaded))
        self.breaker.close()

    # -- packet hooks (called from PlanPLayer._on_ok and _contain) -------------

    def on_packet_ok(self) -> None:
        if self.breaker.record_ok():
            self.manager._on_probation_passed(self)

    def on_packet_error(self, reason: str) -> None:
        if self.breaker.record_error():
            self.manager._on_trip(self, reason)


@dataclass
class Rollout:
    """One staged rollout: STAGED → CANARY → PROMOTED / ABORTED."""

    number: int
    sha: str
    source_name: str
    nodes: list[str]
    canary: list[str]
    #: what promotion installs on the rest of the fleet
    source: str
    verify: bool
    state: RolloutState = RolloutState.STAGED
    #: why the rollout aborted (empty while live / after promotion)
    reason: str = ""
    #: wire-compatibility verdict per distinct running generation
    #: (old-generation sha prefix -> verdict description)
    wire_verdicts: dict[str, str] = field(default_factory=dict)
    #: canary health baseline: node -> (packets_processed, runtime_errors)
    baseline: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: health-window extensions granted to silent canaries
    extensions: int = 0

    @property
    def decided(self) -> bool:
        return self.state in (RolloutState.PROMOTED, RolloutState.ABORTED)


class LifecycleManager:
    """Operates ASPs across one network: rollout, quarantine, rollback."""

    def __init__(self, net: Network, *,
                 deployment: Deployment | None = None,
                 policy: LifecyclePolicy | None = None):
        self.net = net
        self.policy = policy or LifecyclePolicy()
        self.deployment = deployment or Deployment()
        self.nodes: dict[str, NodeLifecycle] = {}
        self.rollouts: list[Rollout] = []
        # deterministic counters (all land in metrics snapshots)
        self.promoted = 0
        self.aborted = 0
        self.vetoes = 0
        #: breaker trips, each of which quarantined its node
        self.trips = 0
        self.half_opens = 0
        self.closes = 0
        self.rollbacks = 0
        net.obs.metrics.register("lifecycle", self._stats_dict)

    def _stats_dict(self) -> dict[str, int]:
        return {
            "managed_nodes": len(self.nodes),
            "rollouts": len(self.rollouts),
            "promoted": self.promoted,
            "aborted": self.aborted,
            "vetoes": self.vetoes,
            "trips": self.trips,
            "quarantines": self.trips,
            "half_opens": self.half_opens,
            "closes": self.closes,
            "rollbacks": self.rollbacks,
            "quarantined_nodes": len(self.quarantined_nodes()),
        }

    # -- node management --------------------------------------------------------

    def manage(self, *nodes: Node | str) -> list[NodeLifecycle]:
        """Attach lifecycle state to nodes (idempotent); a node must be
        managed before rollouts or breakers can cover it."""
        out = []
        for node in nodes:
            node = self.net[node] if isinstance(node, str) else node
            nl = self.nodes.get(node.name)
            if nl is None:
                layer = self.deployment.layer_of(node)
                nl = NodeLifecycle(self, node, layer)
                layer.lifecycle = nl
                self.nodes[node.name] = nl
                if layer.loaded is not None:
                    # Adopt a pre-existing program as generation 1.
                    nl.after_install(layer.loaded)
            out.append(nl)
        return out

    def of(self, node: Node | str) -> NodeLifecycle:
        name = node if isinstance(node, str) else node.name
        return self.nodes[name]

    def quarantined_nodes(self) -> list[str]:
        return sorted(name for name, nl in self.nodes.items()
                      if nl.quarantined)

    # -- staged rollout ---------------------------------------------------------

    def rollout(self, source: str, nodes: list[Node | str], *,
                verify: bool = True, source_name: str = "<asp>",
                force: bool = False) -> Rollout:
        """Stage ``source`` across ``nodes``: canary first (the first
        ``canary_fraction`` of the fleet, in the given order), then a
        health-gated promotion (or abort + canary rollback).  Every
        install runs on :data:`~repro.jit.pipeline.DEFAULT_BACKEND`.

        ``force=True`` skips both the wire-compatibility veto and the
        health gate and promotes immediately — the privileged operator
        path; the circuit breakers still guard it.
        Raises the front end's error for source that does not parse or
        type-check, and :class:`VerificationError` when ``verify`` is
        requested and fails — either before anything is staged: no node
        is touched, and no rollout or event is left behind.

        When ``policy.wire_check`` holds, the candidate's
        :class:`~repro.analysis.wire.WireSummary` is compared against
        every generation currently running on the target nodes; an
        ``incompatible`` verdict vetoes the rollout *before any canary
        packet flows* — the returned rollout is ABORTED with a
        ``wire-incompatible:`` reason and a ``rollout``/``veto`` event
        is emitted, and no node is touched.
        """
        managed = self.manage(*nodes)
        names = [nl.node.name for nl in managed]
        cache = self.deployment.cache
        # Before anything is staged: a rejected program reaches no
        # node and leaves no rollout behind.
        sha, info = cache.frontend(source, source_name)
        if verify:
            cache.check_verified(sha, info)
        count = max(MIN_CANARY,
                    int(len(names) * self.policy.canary_fraction))
        canary_names = names[:min(count, len(names))]
        rollout = Rollout(number=len(self.rollouts) + 1, sha=sha,
                          source_name=source_name, nodes=names,
                          canary=list(canary_names), source=source,
                          verify=verify)
        self.rollouts.append(rollout)
        self._emit("rollout", action="stage", rollout=rollout.number,
                   sha=sha[:12], nodes=len(names),
                   canary=len(canary_names), name=source_name)
        if self.policy.wire_check and not force:
            blockers = self._wire_gate(rollout, info, names)
            if blockers:
                rollout.state = RolloutState.ABORTED
                rollout.reason = "wire-incompatible: " \
                    + "; ".join(blockers)
                self.vetoes += 1
                self.aborted += 1
                return rollout
        if force:
            self._install(source, names, verify, source_name)
            rollout.state = RolloutState.PROMOTED
            self.promoted += 1
            self._emit("rollout", action="force-promote",
                       rollout=rollout.number, sha=sha[:12],
                       nodes=len(names))
            return rollout
        self._install(source, canary_names, verify, source_name)
        rollout.state = RolloutState.CANARY
        self._begin_health_window(rollout)
        self._emit("rollout", action="canary", rollout=rollout.number,
                   sha=sha[:12], nodes=len(canary_names))
        return rollout

    def _wire_gate(self, rollout: Rollout, info: ProgramInfo,
                   names: list[str]) -> list[str]:
        """Prove the candidate (``info``, checked by the front end)
        wire-compatible with every generation currently running on
        ``names``.

        Fills ``rollout.wire_verdicts`` (one verdict per distinct
        running generation) and returns the blocking descriptions —
        empty when the fleet may mix the candidate with everything it
        currently runs.
        """
        from ..analysis.wire import check_compatible

        new_summary = self.deployment.cache.wire(rollout.sha, info)
        # One check per distinct running generation, not per node.
        running: dict[str, tuple[Generation, list[str]]] = {}
        for name in names:
            gen = self.nodes[name].current
            if gen is None or gen.loaded.source_sha == rollout.sha:
                continue
            running.setdefault(gen.loaded.source_sha,
                               (gen, []))[1].append(name)
        blockers: list[str] = []
        for gen_sha in sorted(running):
            gen, on_nodes = running[gen_sha]
            report = check_compatible(gen.loaded.wire, new_summary)
            rollout.wire_verdicts[gen_sha[:12]] = report.describe()
            if not report.ok:
                detail = report.describe()
                blockers.append(
                    f"vs {gen_sha[:12]} on {len(on_nodes)} node(s): "
                    f"{detail}")
                self._emit("rollout", action="veto",
                           rollout=rollout.number, sha=rollout.sha[:12],
                           against=gen_sha[:12], nodes=len(on_nodes),
                           verdict=detail)
        return blockers

    def _begin_health_window(self, rollout: Rollout) -> None:
        rollout.baseline = {
            name: (self.nodes[name].layer.stats.packets_processed,
                   self.nodes[name].layer.stats.runtime_errors)
            for name in rollout.canary}
        self.net.sim.schedule(self.policy.health_window,
                              lambda: self._judge(rollout))

    def _judge(self, rollout: Rollout) -> None:
        """The canary health gate, fired ``health_window`` after the
        canary install."""
        if rollout.state is not RolloutState.CANARY:
            return  # superseded (tripped canary already aborted it)
        processed = 0
        failures: list[str] = []
        for name in rollout.canary:
            nl = self.nodes[name]
            base_p, base_e = rollout.baseline[name]
            dp = nl.layer.stats.packets_processed - base_p
            de = nl.layer.stats.runtime_errors - base_e
            processed += dp
            if nl.breaker.state is not BreakerState.CLOSED:
                failures.append(f"{name}: breaker "
                                f"{nl.breaker.state.value}")
            elif (nl.current is None
                  or nl.current.loaded.source_sha != rollout.sha):
                failures.append(f"{name}: canary lost the program")
            elif de > 0:
                failures.append(f"{name}: {de} errors / {dp} packets")
        if not failures and processed < MIN_CANARY_PACKETS:
            if rollout.extensions < MAX_EXTENSIONS:
                # Silent canaries are not evidence; hold a bit longer.
                rollout.extensions += 1
                self.net.sim.schedule(self.policy.health_window,
                                      lambda: self._judge(rollout))
                return
            failures.append(f"canaries processed {processed} packets "
                            f"in {rollout.extensions + 1} windows")
        if failures:
            self._abort(rollout, "; ".join(failures))
        else:
            self._promote(rollout)

    def _promote(self, rollout: Rollout) -> None:
        rest = [n for n in rollout.nodes if n not in set(rollout.canary)]
        self._install(rollout.source, rest, rollout.verify,
                      rollout.source_name)
        rollout.state = RolloutState.PROMOTED
        self.promoted += 1
        self._emit("rollout", action="promote", rollout=rollout.number,
                   sha=rollout.sha[:12], nodes=len(rest))

    def _abort(self, rollout: Rollout, reason: str) -> None:
        rollout.state = RolloutState.ABORTED
        rollout.reason = reason
        self.aborted += 1
        self._emit("rollout", action="abort", rollout=rollout.number,
                   sha=rollout.sha[:12], reason=reason)
        self._rollback_nodes(rollout.canary, rollout.sha,
                             reason=f"canary abort: {reason}")

    def _install(self, source: str, names: list[str], verify: bool,
                 source_name: str, backend: str = DEFAULT_BACKEND) -> None:
        if names:
            self.deployment.install(
                source, [self.nodes[n].node for n in names],
                backend=backend, verify=verify, source_name=source_name)

    # -- circuit breaker orchestration -----------------------------------------

    def _on_trip(self, nl: NodeLifecycle, reason: str) -> None:
        """A node's breaker tripped: quarantine the ASP (uninstall it)
        and schedule the cool-down decision."""
        self.trips += 1
        gen = nl.current
        gen_number = gen.number if gen is not None else 0
        sha = gen.loaded.source_sha if gen is not None else ""
        nl.layer.uninstall()
        self._emit("quarantine", action="trip", node=nl.node.name,
                   generation=gen_number, sha=sha[:12],
                   trips=nl.breaker.trips, reason=reason)
        # A tripped canary decides its rollout immediately — no point
        # holding the health window open over a quarantined node.
        for rollout in self.rollouts:
            if (rollout.state is RolloutState.CANARY
                    and nl.node.name in rollout.canary
                    and rollout.sha == sha):
                self._abort(rollout,
                            f"{nl.node.name}: error budget exhausted")
                return
        self.net.sim.schedule(
            self.policy.cooldown,
            lambda: self._after_cooldown(nl, gen_number))

    def _after_cooldown(self, nl: NodeLifecycle, gen_number: int) -> None:
        gen = nl.current
        if (not nl.quarantined or gen is None
                or gen.number != gen_number):
            return  # rolled back or replaced while cooling down
        if nl.breaker.trips >= self.policy.rollback_after_trips:
            # Out of retrials.  Roll the generation back fleet-wide —
            # to its predecessor where one exists, to standard IP
            # processing where this was the first install.
            self._rollback_fleet(gen.loaded.source_sha,
                                 reason=f"{nl.node.name} tripped "
                                        f"{nl.breaker.trips}x")
            return
        # Half-open retrial: reinstall the same generation (warm, via
        # the program cache); the install half-opens the breaker, so
        # the program runs on probation.
        self.half_opens += 1
        self._emit("quarantine", action="half-open", node=nl.node.name,
                   generation=gen.number,
                   sha=gen.loaded.source_sha[:12])
        self._reinstall(nl, gen, "<retrial>")

    def _on_probation_passed(self, nl: NodeLifecycle) -> None:
        self.closes += 1
        gen = nl.current
        self._emit("quarantine", action="close", node=nl.node.name,
                   generation=(gen.number if gen is not None else 0))

    # -- rollback ---------------------------------------------------------------

    def rollback(self, sha: str) -> list[str]:
        """The operator's rollback: every node running generation
        ``sha`` goes back to the one before it.  Returns the nodes
        rolled back.

        A ``sha`` absent from a node's history skips that node with a
        ``rollback``/``skip`` event; absent from *every* node's
        history, the call is a clean audited no-op (never an exception
        mid-fleet).
        """
        names = self._running(sha)
        if not names:
            self._emit("rollback", action="skip", sha=sha[:12], node="",
                       nodes=0,
                       reason="no managed node runs this generation")
            return []
        for name in sorted(set(self.nodes) - set(names)):
            nl = self.nodes[name]
            self._emit("rollback", action="skip", sha=sha[:12],
                       node=name,
                       current=(nl.current.loaded.source_sha[:12]
                                if nl.current is not None else ""),
                       reason="generation not running here")
        return self._rollback_nodes(names, sha, reason="operator")

    def _rollback_fleet(self, sha: str, *, reason: str) -> None:
        """Automatic rollback: every managed node on ``sha`` reverts."""
        self.rollbacks += 1
        names = self._running(sha)
        self._emit("rollback", action="start", sha=sha[:12],
                   nodes=len(names), reason=reason)
        rolled = self._rollback_nodes(names, sha, reason=reason)
        self._emit("rollback", action="done", sha=sha[:12],
                   nodes=len(rolled))

    def _rollback_nodes(self, names: list[str], sha: str, *,
                        reason: str) -> list[str]:
        rolled: list[str] = []
        for name in names:
            nl = self.nodes[name]
            bad = nl.current
            if bad is None or bad.loaded.source_sha != sha:
                continue
            nl.generations.pop()
            nl.rolled_back.append(bad)
            prev = nl.current
            action, error = "node", {}
            try:
                if prev is None:
                    # Nothing to return to: standard IP processing.
                    nl.layer.uninstall()
                else:
                    self._restore(nl, prev)
                rolled.append(name)
            except Exception as exc:  # noqa: BLE001 — never raise mid-fleet
                # Contain the failure to this node: revert it to
                # standard IP with a truthful (emptied) history and
                # keep rolling the rest of the fleet.
                nl.rolled_back.extend(reversed(nl.generations))
                nl.generations.clear()
                nl.layer.uninstall()
                action = "node-failed"
                error = {"error": f"{type(exc).__name__}: {exc}"}
            nl.breaker.close()
            self._emit("rollback", action=action, node=name,
                       from_generation=bad.number,
                       to_generation=prev.number if prev else 0,
                       **error, reason=reason)
        return rolled

    def _restore(self, nl: NodeLifecycle, gen: Generation) -> None:
        """Reinstate ``gen`` on ``nl``'s node: with its state when the
        snapshot survives, from its initial state otherwise."""
        snap = gen.snapshot
        if snap is not None:
            nl.layer.restore_program(snap)
            gen.snapshot = None
        else:
            self._reinstall(nl, gen, "<rollback>")

    def _reinstall(self, nl: NodeLifecycle, gen: Generation,
                   source_name: str) -> None:
        # A fresh engine, not the old one: a ``val`` evaluated at
        # install may draw from the node's entropy stream.
        loaded = gen.loaded
        self._install(loaded.source, [nl.node.name], loaded.verified,
                      source_name, loaded.backend)

    def _running(self, sha: str) -> list[str]:
        """Sorted names of the managed nodes whose current generation
        (quarantined or not) is ``sha``."""
        return [name for name in sorted(self.nodes)
                if (gen := self.nodes[name].current) is not None
                and gen.loaded.source_sha == sha]

    # -- helpers ----------------------------------------------------------------

    def _emit(self, kind: str, **data) -> None:
        self.net.obs.events.emit(kind, **data)


def lifecycle_summary(events: list[dict]) -> dict:
    """Fold an event list into the ``obsdump --view lifecycle`` view:
    rollout totals (including wire-compatibility vetoes with their
    verdicts), plus per-node installs, breaker trips, half-opens,
    closes, rollbacks, and the generation each node ended on."""
    totals = {"rollouts": 0, "promoted": 0, "aborted": 0,
              "vetoed": 0, "fleet_rollbacks": 0, "rollback_skips": 0}
    vetoes: list[dict] = []
    nodes: dict[str, dict] = {}

    def node(name: str) -> dict:
        return nodes.setdefault(name, {
            "installs": 0, "trips": 0, "half_opens": 0, "closes": 0,
            "rollbacks": 0, "generation": None})

    for event in events:
        kind = event.get("kind")
        action = event.get("action", "")
        if kind == "deploy" and action in ("install", "restore"):
            node(event["node"])["installs"] += 1
        elif kind == "rollout":
            if action == "stage":
                totals["rollouts"] += 1
            elif action in ("promote", "force-promote"):
                totals["promoted"] += 1
            elif action == "abort":
                totals["aborted"] += 1
            elif action == "veto":
                totals["vetoed"] += 1
                vetoes.append({
                    "rollout": event.get("rollout"),
                    "sha": event.get("sha"),
                    "against": event.get("against"),
                    "nodes": event.get("nodes"),
                    "verdict": event.get("verdict"),
                })
        elif kind == "quarantine":
            key = {"trip": "trips", "half-open": "half_opens",
                   "close": "closes"}.get(action)
            if key is not None:
                node(event["node"])[key] += 1
        elif kind == "rollback":
            if action == "start":
                totals["fleet_rollbacks"] += 1
            elif action == "skip":
                totals["rollback_skips"] += 1
            elif action == "node":
                entry = node(event["node"])
                entry["rollbacks"] += 1
                entry["generation"] = event.get("to_generation")
    return {"totals": totals,
            "vetoes": vetoes,
            "nodes": {name: nodes[name] for name in sorted(nodes)}}
