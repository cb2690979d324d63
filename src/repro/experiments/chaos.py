"""Chaos drills: the lifecycle manager and the apps under scripted faults.

Three profiles, all deterministic under the scenario seed:

* ``drill`` — the poisoned-ASP drill of the lifecycle manager: a
  16-router chain runs a good forwarding ASP (generation 1), a
  known-bad ASP (raises on every packet whose leading payload byte is
  divisible by 5) is rolled out twice — once through the canary health
  gate (which must abort it) and once force-promoted (which the
  per-node circuit breakers must quarantine and automatically roll
  back) — and delivery throughput must recover to within 5% of the
  pre-deploy baseline.
* ``audio`` — the figure 5/6 audio experiment under a scripted
  link-flap timeline (the source uplink fails twice, mid-run).
* ``http`` — a figure 8 HTTP configuration with one backend's link
  flapping mid-run.

The app profiles assert *operational* properties — the run completes,
every fault heals, routing reconverges — while the drill asserts the
full rollout → quarantine → rollback state machine.  All three emit
their verdict in ``figures`` (``healthy``, ``quarantined_at_end``,
``faults_injected``) so the chaos matrix and CI can gate on them.
"""

from __future__ import annotations

from ..net import Network
from ..net.packet import udp_packet
from ..obs import Observability
from ..runtime.deployment import Deployment
from ..runtime.lifecycle import (LifecycleManager, LifecyclePolicy,
                                 RolloutState)
from .result import ExperimentResult

#: Generation 1: a verified pass-through forwarder.
GOOD_ASP = """\
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
"""

#: The known-bad ASP: divides by zero whenever the leading payload byte
#: is divisible by 5 — a deterministic ~20% runtime-error rate against
#: the drill's rotating-byte traffic.  It cannot pass verification (the
#: delivery analysis sees the possible DivideByZero), so the drill
#: installs it with ``verify=False``: the paper's
#: authenticated-privileged path, exactly the case the lifecycle
#: manager exists to contain.
BAD_ASP = """\
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  let
    val body : blob = #3 p
    val seq : int = blobByte(body, 0)
    val poison : int = 1 / (seq mod 5)
  in
    (OnRemote(network, p); (ps + poison - poison + 1, ss))
  end
"""


class ChaosResult(ExperimentResult):
    """Unified result of one chaos drill.  ``params``: ``profile`` and
    the topology/timing knobs; ``figures``: the drill verdict
    (``healthy``, ``canary_aborted``, ``trips``, ``rollbacks``,
    ``quarantined_at_end``, ``recovery_ratio``, ...)."""

    _EXPERIMENT = "chaos"

    @property
    def healthy(self) -> bool:
        return bool(self.figures.get("healthy"))


def run_chaos_experiment(*, profile: str = "drill", seed: int = 5,
                         n_routers: int = 16, duration: float = 12.0,
                         obs: Observability | None = None) -> ChaosResult:
    """Run one chaos profile; see the module docstring."""
    if profile == "drill":
        return _run_drill(seed=seed, n_routers=n_routers,
                          duration=duration, obs=obs)
    if profile == "audio":
        return _run_audio_faults(seed=seed, duration=duration, obs=obs)
    if profile == "http":
        return _run_http_faults(seed=seed, duration=duration, obs=obs)
    raise ValueError(f"unknown chaos profile {profile!r}; "
                     f"pick from ('drill', 'audio', 'http')")


# ---------------------------------------------------------------------------
# drill: poisoned-ASP rollout / quarantine / rollback
# ---------------------------------------------------------------------------


def _drill_fleet(*, seed: int, n_routers: int,
                 obs: Observability | None, gen1: str, gen1_name: str,
                 wire_check: bool = True):
    """The fleet both lifecycle drills run on: src → ``n_routers``
    routers → dst at 100 Mbit / 0.2 ms under a lifecycle manager,
    ``gen1`` force-installed fleet-wide (the initial install — there is
    nothing to canary against yet), and a 20 ms rotating-byte UDP
    ticker from src to dst scheduled.  Returns ``(net, routers, dst,
    manager)``."""
    net = Network(seed=seed, obs=obs)
    src = net.add_host("src")
    routers = [net.add_router(f"r{i}") for i in range(n_routers)]
    dst = net.add_host("dst")
    prev = src
    for router in routers:
        net.link(prev, router, bandwidth=100e6, latency=0.0002)
        prev = router
    net.link(prev, dst, bandwidth=100e6, latency=0.0002)
    net.finalize()

    policy = LifecyclePolicy(canary_fraction=0.25, health_window=0.5,
                             error_budget=3, budget_window=0.5,
                             cooldown=0.3, rollback_after_trips=2,
                             wire_check=wire_check)
    manager = LifecycleManager(net, deployment=Deployment(),
                               policy=policy)
    manager.manage(*routers)
    manager.rollout(gen1, routers, source_name=gen1_name, force=True)

    tick = 0.02
    counter = [0]

    def send() -> None:
        payload = bytes([counter[0] % 256])
        counter[0] += 1
        src.ip_send(udp_packet(src.address, dst.address, 5000, 7000,
                               payload))
        net.sim.schedule(tick, send)

    net.sim.schedule(0.0, send)
    return net, routers, dst, manager


def _run_drill(*, seed: int, n_routers: int, duration: float,
               obs: Observability | None) -> ChaosResult:
    net, routers, dst, manager = _drill_fleet(
        seed=seed, n_routers=n_routers, obs=obs,
        gen1=GOOD_ASP, gen1_name="chaos-good")
    delivered: list[float] = []
    dst.delivery_taps.append(lambda p: delivered.append(net.now))

    # t=2: canary rollout of the bad ASP — the health gate must abort.
    bad_rollouts: list = []

    def canary_bad() -> None:
        bad_rollouts.append(manager.rollout(
            BAD_ASP, routers, verify=False,
            source_name="chaos-bad"))

    # t=4: an impatient operator force-promotes the same bad ASP —
    # the breakers must quarantine it and roll the fleet back.
    def force_bad() -> None:
        bad_rollouts.append(manager.rollout(
            BAD_ASP, routers, verify=False,
            source_name="chaos-bad", force=True))

    net.sim.at(2.0, canary_bad)
    net.sim.at(4.0, force_bad)
    net.run(until=duration)

    in_window = lambda lo, hi: sum(1 for t in delivered  # noqa: E731
                                   if lo <= t < hi)
    # Baseline: generation 1 at steady state; recovery: the last full
    # second of the run, well after the automatic rollback.
    baseline = in_window(1.0, 2.0)
    recovered = in_window(duration - 1.5, duration - 0.5)
    good_sha = manager.deployment.cache.digest(GOOD_ASP)
    final_generations = {
        name: (nl.current.sha[:12] if nl.current is not None else "")
        for name, nl in sorted(manager.nodes.items())}
    canary, forced = (bad_rollouts + [None, None])[:2]
    figures = {
        "healthy": (not manager.quarantined_nodes()
                    and manager.rollbacks >= 1
                    and all(nl.current is not None
                            and nl.current.sha == good_sha
                            for nl in manager.nodes.values())),
        "canary_aborted": (canary is not None
                           and canary.state is RolloutState.ABORTED),
        "abort_reason": canary.reason if canary is not None else "",
        "force_promoted": (forced is not None
                           and forced.state is RolloutState.PROMOTED),
        "trips": manager.trips,
        "quarantines": manager.quarantines,
        "half_opens": manager.half_opens,
        "rollbacks": manager.rollbacks,
        "quarantined_at_end": len(manager.quarantined_nodes()),
        "baseline_delivered": baseline,
        "recovered_delivered": recovered,
        "recovery_ratio": (recovered / baseline) if baseline else 0.0,
        "final_generations": final_generations,
        "lifecycle_events": sum(
            1 for e in net.obs.events.filter()
            if e.kind in ("rollout", "quarantine", "rollback")),
    }
    return ChaosResult(seed=seed,
                       params={"profile": "drill",
                               "n_routers": n_routers,
                               "duration": duration},
                       metrics=net.metrics_snapshot(), figures=figures)


# ---------------------------------------------------------------------------
# audio / http: the real experiments under scripted link faults
# ---------------------------------------------------------------------------


def _flap_timeline(net: Network, medium_name: str,
                   flaps: list[tuple[float, float]]) -> None:
    """Schedule ``(down_at, up_at)`` flaps of the named medium."""
    medium = next(m for m in net.media if m.name == medium_name)
    faults = net.faults
    for down_at, up_at in flaps:
        faults.at(down_at, faults.link_down, medium)
        faults.at(up_at, faults.link_up, medium)


def _fault_figures(net: Network) -> dict:
    faults = net.faults
    return {
        "healthy": all(m.up for m in net.media)
        and all(node.up for node in net.nodes),
        "quarantined_at_end": 0,
        "faults_injected": len(faults.log),
        "reconvergences": faults.reconvergences,
    }


def _run_audio_faults(*, seed: int, duration: float,
                      obs: Observability | None) -> ChaosResult:
    from ..apps.audio.experiment import run_audio_experiment

    nets: list[Network] = []

    def tracer(net: Network) -> None:
        nets.append(net)
        # The source uplink fails twice, briefly, mid-run.
        _flap_timeline(net, "audio-source--router",
                       [(duration * 0.3, duration * 0.35),
                        (duration * 0.6, duration * 0.65)])

    result = run_audio_experiment(adaptation=True, duration=duration,
                                  seed=seed, obs=obs, tracer=tracer)
    net = nets[0]
    figures = _fault_figures(net)
    figures["frames_sent"] = result.figures.get("frames_sent", 0)
    figures["frames_received"] = result.figures.get("frames_received", 0)
    figures["silent_periods"] = result.figures.get("silent_periods", 0)
    return ChaosResult(seed=seed,
                       params={"profile": "audio", "n_routers": 1,
                               "duration": duration},
                       metrics=net.metrics_snapshot(), figures=figures)


def _run_http_faults(*, seed: int, duration: float,
                     obs: Observability | None) -> ChaosResult:
    from ..apps.http.experiment import run_http_experiment

    nets: list[Network] = []

    def tracer(net: Network) -> None:
        nets.append(net)
        # One backend's link flaps mid-run; the gateway must keep
        # serving from the survivor and pick the backend up again.
        _flap_timeline(net, "server1--gateway",
                       [(duration * 0.4, duration * 0.55)])

    result = run_http_experiment(mode="asp", n_clients=4,
                                 duration=duration, warmup=2.0,
                                 seed=seed, obs=obs, tracer=tracer)
    net = nets[0]
    figures = _fault_figures(net)
    figures["completed"] = result.figures.get("completed", 0)
    figures["failures"] = result.figures.get("failures", 0)
    return ChaosResult(seed=seed,
                       params={"profile": "http", "n_routers": 1,
                               "duration": duration},
                       metrics=net.metrics_snapshot(), figures=figures)
