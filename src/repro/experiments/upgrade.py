"""The rolling-upgrade drill: wire-compat gating on a 16-node fleet.

A chain of routers forwards live traffic under generation 1.  Two
generation-2 candidates then arrive, exactly as §4's extensibility
story says they will:

* an **incompatible** one — same program shape, but the network
  channel's packet layout changed (``ip*udp*blob`` →
  ``ip*udp*int*blob``).  The lifecycle manager's wire-compatibility
  gate must veto it *before the canary window opens*: no node ever
  installs it, no mixed-generation packet is ever exchanged, and the
  fleet's delivery stream never notices the attempt.
* a **compatible** one — identical wire signature, different body.
  It must sail through canary and promote fleet-wide.

The gate is free: without the incompatible attempt the run is
byte-identical (delivery times and payloads, digested) whether the
lifecycle policy's ``wire_check`` is on or off — the gate only reads
summaries already derived by the JIT pipeline, so a compatible rollout
pays nothing (``tests/integration/test_upgrade_drill.py`` runs that
control).

Figures: ``vetoed`` / ``veto_reason`` / ``incompat_installed_anywhere``
(must stay False) / ``promoted`` / ``healthy`` /
``delivery_digest`` (sha256 over the (time, payload) delivery stream,
the byte-identity witness) / ``vetoes`` / ``final_generations``.
"""

from __future__ import annotations

import hashlib

from ..obs import Observability
from ..runtime.lifecycle import RolloutState
from .chaos import _drill_fleet
from .result import ExperimentResult

#: Generation 1: the verified pass-through forwarder.
GEN1_ASP = """\
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
"""

#: Generation 2, compatible: same wire signature, new body.
GEN2_COMPAT_ASP = """\
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 2, ss))
"""

#: Generation 2, incompatible: the packet layout grew an int field —
#: generation-1 nodes would misread (or pass) every packet a mixed
#: fleet carries.  The program itself verifies fine; only the *pair*
#: is broken, which is exactly what the static gate must catch.
GEN2_INCOMPAT_ASP = """\
channel network(ps : int, ss : unit, p : ip*udp*int*blob) is
  (OnRemote(network, p); (ps + 1, ss))
"""


class UpgradeResult(ExperimentResult):
    """Result of one rolling-upgrade drill.  ``figures`` carries the
    veto/promote verdicts and the delivery-stream digest."""

    _EXPERIMENT = "upgrade"


def run_upgrade_experiment(*, seed: int = 5, n_routers: int = 16,
                           duration: float = 8.0,
                           obs: Observability | None = None
                           ) -> UpgradeResult:
    """Run the rolling-upgrade drill; see the module docstring."""
    net, routers, dst, manager = _drill_fleet(
        seed=seed, n_routers=n_routers, obs=obs,
        gen1=GEN1_ASP, gen1_name="upgrade-gen1")
    records: list[tuple[float, bytes]] = []
    dst.delivery_taps.append(lambda p: records.append((net.now,
                                                       p.payload)))

    rollouts: dict[str, object] = {}

    # t=2: the incompatible candidate.  The gate must veto it
    # synchronously — before any canary node installs anything.
    def attempt_bad() -> None:
        rollouts["incompat"] = manager.rollout(
            GEN2_INCOMPAT_ASP, routers,
            source_name="upgrade-gen2-incompat")

    # t=3: the compatible candidate; canary opens, health window
    # passes on live traffic, the fleet promotes.
    def attempt_good() -> None:
        rollouts["compat"] = manager.rollout(
            GEN2_COMPAT_ASP, routers,
            source_name="upgrade-gen2-compat")

    net.sim.at(2.0, attempt_bad)
    net.sim.at(3.0, attempt_good)
    net.run(until=duration)

    cache = manager.deployment.cache
    incompat_sha = cache.digest(GEN2_INCOMPAT_ASP)
    compat_sha = cache.digest(GEN2_COMPAT_ASP)
    incompat = rollouts.get("incompat")
    compat = rollouts.get("compat")

    # The veto-before-canary witness: the incompatible generation
    # never touched any node — not installed now, never installed and
    # rolled back either.
    incompat_seen = any(
        incompat_sha == g.loaded.source_sha
        for nl in manager.nodes.values()
        for g in nl.generations + nl.rolled_back)

    digest = hashlib.sha256()
    for t, payload in records:
        digest.update(f"{t:.9f}:".encode())
        digest.update(payload)
        digest.update(b"|")

    vetoed = (incompat is not None
              and incompat.state is RolloutState.ABORTED
              and incompat.reason.startswith("wire-incompatible"))
    promoted = (compat is not None
                and compat.state is RolloutState.PROMOTED)
    on_compat = all(nl.current is not None
                    and nl.current.loaded.source_sha == compat_sha
                    for nl in manager.nodes.values())
    final_generations = {
        name: (nl.current.loaded.source_sha[:12]
               if nl.current is not None else "")
        for name, nl in sorted(manager.nodes.items())}
    figures = {
        "healthy": (promoted and on_compat
                    and not manager.quarantined_nodes()
                    and vetoed and not incompat_seen),
        "vetoed": vetoed,
        "veto_reason": (incompat.reason
                        if incompat is not None else ""),
        "wire_verdicts": (dict(incompat.wire_verdicts)
                          if incompat is not None else {}),
        "incompat_installed_anywhere": incompat_seen,
        "promoted": promoted,
        "on_compat_at_end": on_compat,
        "vetoes": manager.vetoes,
        "quarantined_at_end": len(manager.quarantined_nodes()),
        "delivered": len(records),
        "delivery_digest": digest.hexdigest(),
        "final_generations": final_generations,
        "lifecycle_events": sum(
            1 for e in net.obs.events.events
            if e.kind in ("rollout", "quarantine", "rollback")),
    }
    return UpgradeResult(
        seed=seed,
        # the drill always runs the gate and the incompatible attempt
        params={"n_routers": n_routers, "duration": duration,
                "wire_check": True, "attempt_incompatible": True},
        metrics=net.metrics_snapshot(), figures=figures)
