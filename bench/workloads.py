"""The six workloads.

Each workload is a function ``(seed, size, clock) -> Outcome`` that
builds its inputs from the seed alone, runs them through the public API
of ``repro`` and returns the *simulated* results (exact, digested for
the correctness gate) beside the operation counts.  Host time is taken
by the caller through ``clock`` (a :class:`bench.trace.PhaseClock`).

Sizes: ``full`` is what the benchmark measures and what
``expected.json`` pins; ``smoke`` is the same code at a size the test
suite can afford.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import asps
from repro.apps.audio.experiment import FIG6_SCHEDULE, run_audio_experiment
from repro.apps.http.experiment import run_http_experiment
from repro.experiments.scale import run_scale_experiment
from repro.jit.pipeline import BACKENDS, ProgramCache
from repro.lang.errors import VerificationError
from repro.net.addresses import HostAddr
from repro.net.packet import tcp_packet, udp_packet
from repro.net.topology import Network
from repro.runtime.deployment import Deployment

from .trace import PhaseClock

BURST_PROGRAM = Path(__file__).parent / "programs" / "burst.planp"


@dataclass
class Outcome:
    #: simulated results: a pure function of (code, seed, size)
    results: dict[str, Any]
    #: a ``Network.metrics_snapshot()`` (or the experiment's copy of it)
    snapshot: dict[str, Any]
    #: operations completed (delivered packets; deployments)
    ops: int
    attempted: int
    failed: int
    #: named invariants that must hold for every seed
    invariants: dict[str, bool]
    #: counters no snapshot carries (per-layer metric name -> value)
    extra: dict[str, float] = field(default_factory=dict)


def _delivered(snapshot: dict[str, Any]) -> int:
    return sum(value for key, value in snapshot.items()
               if key.startswith("node.") and key.endswith(".delivered"))


def digest(results: dict[str, Any]) -> str:
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- the three paper experiments and the scale ring ------------------------------

_SCALE = {"full": dict(n_clusters=50, hosts_per_cluster=40,
                       packets_per_host=15),
          "smoke": dict(n_clusters=6, hosts_per_cluster=30,
                        packets_per_host=4)}


def scale_udp(seed: int, size: str, clock: PhaseClock) -> Outcome:
    # The ring's traffic pattern is fixed by its parameters, so the seed
    # moves the send interval: same work, different event interleaving.
    interval = round(0.02 * random.Random(seed).uniform(0.9, 1.1), 6)
    result = run_scale_experiment(seed=seed, interval=interval,
                                  **_SCALE[size])
    figures = result.record()["figures"]
    sent, delivered = figures["sent"], figures["delivered"]
    return Outcome(results=figures, snapshot=result.metrics,
                   ops=_delivered(result.metrics),
                   attempted=sent, failed=sent - delivered,
                   invariants={"delivered == sent": delivered == sent},
                   extra={"net.topology.nodes": figures["nodes"]})


_HTTP = {"full": dict(n_clients=8, duration=7.0, warmup=1.0),
         "smoke": dict(n_clients=3, duration=0.8, warmup=0.2)}


def _http(mode: str) -> Callable[[int, str, PhaseClock], Outcome]:
    def run(seed: int, size: str, clock: PhaseClock) -> Outcome:
        params = _HTTP[size]
        result = run_http_experiment(mode=mode, seed=seed, **params)
        figures = result.record()["figures"]
        completed, failures = figures["completed"], figures["failures"]
        return Outcome(
            results=figures, snapshot=result.metrics,
            ops=_delivered(result.metrics),
            attempted=completed + failures, failed=failures,
            invariants={"failures == 0": failures == 0,
                        "completed > 0": completed > 0},
            extra={"apps.http.completed": completed,
                   "apps.http.failed": failures,
                   "apps.http.sim_throughput_rps":
                       figures["throughput_rps"],
                   "apps.http.sim_mean_latency_ms":
                       figures["mean_latency_s"] * 1e3,
                   "apps.http.sim_balance_ratio": result.balance_ratio,
                   "net.topology.nodes": 3 + params["n_clients"]})

    return run


_AUDIO = {"full": 240.0, "smoke": 12.0}


def audio_adapt(seed: int, size: str, clock: PhaseClock) -> Outcome:
    duration = _AUDIO[size]
    # Figure 6's load steps, each moved by up to 5 % of the run.
    rng = random.Random(seed)
    schedule = [((frac + rng.uniform(-0.05, 0.05)) * duration, rate)
                for frac, rate in FIG6_SCHEDULE]
    result = run_audio_experiment(adaptation=True, duration=duration,
                                  load_schedule=schedule, seed=seed)
    figures = result.record()["figures"]
    sent, received = figures["frames_sent"], figures["frames_received"]
    # The frame sent on the closing tick is still in flight when the
    # clock stops; it is not a loss.
    lost = max(0, sent - received - 1)
    return Outcome(
        results=figures, snapshot=result.metrics,
        ops=_delivered(result.metrics),
        attempted=sent, failed=lost,
        invariants={"no frame lost": lost == 0,
                    "restored": bool(figures["restored"])},
        extra={"apps.audio.frames_sent": sent,
               "apps.audio.frames_received": received,
               "apps.audio.sim_silent_periods": figures["silent_periods"],
               "net.topology.nodes": 5})


# -- asp_burst: dispatch, codec and engine with the network out of the way ---------

_BURST = {"full": dict(packets=400_000, pool=4096),
          "smoke": dict(packets=20_000, pool=512)}
_BURST_SIZES = (1, 4, 64)


def _burst_pool(rng: random.Random, n: int, dst: HostAddr) -> list:
    """``n`` packets in runs of 1-64 of one shape (see burst.planp for
    the four shapes), payloads from nothing to 1 400 bytes."""
    sources = [HostAddr.parse(f"172.16.{rng.randrange(4)}.{i + 1}")
               for i in range(64)]
    pool: list = []
    while len(pool) < n:
        kind = rng.randrange(4)
        for _ in range(min(rng.randint(1, 64), n - len(pool))):
            src = rng.choice(sources)
            port = rng.randrange(1024, 65536)
            if kind == 0:
                flow = (rng.choice(sources).value.to_bytes(4, "big")
                        + rng.randrange(256).to_bytes(4, "big"))
                pool.append(udp_packet(src, dst, port, 9, flow))
            elif kind == 1:
                size = rng.choice((9, 64, 512, 1400))
                pool.append(udp_packet(src, dst, port, 9,
                                       rng.randbytes(size)))
            elif kind == 2:
                size = rng.choice((1, 64, 512, 1400))
                pool.append(tcp_packet(src, dst, port, 80,
                                       rng.randbytes(size), seq=1))
            else:
                pool.append(tcp_packet(src, dst, port, 80, b"", seq=1))
    return pool


def asp_burst(seed: int, size: str, clock: PhaseClock) -> Outcome:
    params = _BURST[size]
    rng = random.Random(seed)
    net = Network(seed=seed, name="burst")
    router = net.add_router("router")
    stub = net.add_host("stub")
    net.link(router, stub)
    net.finalize()
    Deployment().install(BURST_PROGRAM.read_text(), [router],
                         backend="closure", source_name="burst")
    layer = router.planp
    assert layer is not None

    pool = _burst_pool(rng, params["pool"], router.address)
    iface = router.interfaces[0]
    receive = router.receive
    total, at, when = params["packets"], 0, 0.0
    while at < total:
        burst = min(rng.choice(_BURST_SIZES), total - at)
        start = at % len(pool)
        chunk = pool[start:start + burst]
        chunk += pool[:burst - len(chunk)]

        def inject(chunk=chunk) -> None:
            for packet in chunk:
                receive(packet, iface)

        net.sim.at(when, inject, context=router.ctx)
        at += burst
        when += 0.001
    net.run(until=when)

    snapshot = net.metrics_snapshot()
    stats = layer.stats
    delivered = router.stats.delivered
    states = [layer.channel_states[id(decl)]
              for decl in layer.loaded.info.all_channels()]
    flows = states[0]
    results = {
        "injected": total,
        "delivered": delivered,
        "protocol_state": layer.protocol_state,
        "flow_table": [len(flows), sum(v for _k, v in flows.items())],
        "channel_counts": states[1:],
        "packets_processed": stats.packets_processed,
        "packets_delivered": stats.packets_delivered,
        "runtime_errors": stats.runtime_errors,
    }
    failed = total - delivered + stats.runtime_errors
    return Outcome(results=results, snapshot=snapshot, ops=delivered,
                   attempted=total, failed=failed,
                   invariants={"delivered == injected": delivered == total,
                               "runtime_errors == 0":
                                   stats.runtime_errors == 0},
                   extra={"net.topology.nodes": len(net.nodes)})


# -- deploy_cold: the control plane -------------------------------------------------

_DEPLOY_ROUNDS = {"full": 20, "smoke": 1}

#: programs the delivery analysis must refuse (they drop packets)
REJECTED = ("firewall_asp", "shedding_asp")


def _templates(rng: random.Random) -> dict[str, str]:
    """All shipped ``repro.asps`` templates, rendered with seeded
    addresses, ports and table sizes."""
    def port() -> int:
        return rng.randrange(1024, 60000)

    def host() -> str:
        return f"10.{rng.randrange(256)}.{rng.randrange(256)}.2"

    return {
        "audio_router_asp": asps.audio_router_asp(audio_port=port()),
        "audio_client_asp": asps.audio_client_asp(audio_port=port()),
        "http_gateway_asp": asps.http_gateway_asp(
            host(), [host() for _ in range(rng.randint(2, 4))],
            http_port=port()),
        "mpeg_monitor_asp": asps.mpeg_monitor_asp(
            ctrl_port=port(), query_port=port(), reply_port=port()),
        "mpeg_client_asp": asps.mpeg_client_asp(config_port=port()),
        "link_compressor_asp": asps.link_compressor_asp(app_port=port()),
        "link_decompressor_asp": asps.link_decompressor_asp(
            app_port=port()),
        "content_filter_asp": asps.content_filter_asp(
            f"blocked-{rng.randrange(10**6)}", host(), http_port=port()),
        "image_distiller_asp": asps.image_distiller_asp(image_port=port()),
        "firewall_asp": asps.firewall_asp(
            sorted(port() for _ in range(3))),
        "shedding_asp": asps.shedding_asp(http_port=port()),
    }


def deploy_cold(seed: int, size: str, clock: PhaseClock) -> Outcome:
    rounds = _DEPLOY_ROUNDS[size]
    net = Network(seed=seed, name="deploy")
    routers = [net.add_router(f"r{i}") for i in range(4)]
    for a, b in zip(routers, routers[1:]):
        net.link(a, b)
    net.finalize()
    templates = _templates(random.Random(seed))

    verdicts: dict[str, Any] = {}
    attempted = failed = 0
    hits = misses = 0
    for _ in range(rounds):
        for name, source in templates.items():
            # one template on all three backends = one slice of the run
            with clock.run_phase("experiments", "deploy"):
                for backend in BACKENDS:
                    attempted += 1
                    deployment = Deployment(cache=ProgramCache())
                    try:
                        record = deployment.install(
                            source, routers, backend=backend,
                            source_name=name)
                    except VerificationError as err:
                        verdict = f"rejected:{err.analysis}"
                        ok = name in REJECTED
                    else:
                        verdict = "accepted"
                        ok = (name not in REJECTED and record.verified
                              and all(r.planp.current_sha
                                      == record.source_sha
                                      for r in routers))
                        hits += record.cache_hits
                        misses += record.cache_misses
                        deployment.uninstall(routers)
                    failed += not ok
                    verdicts.setdefault(name, {})[backend] = verdict

    results = {name: {"source_sha": ProgramCache.digest(source),
                      "verdicts": verdicts[name]}
               for name, source in templates.items()}
    accepted = sum(all(v == "accepted" for v in r["verdicts"].values())
                   for r in results.values())
    return Outcome(
        results=results, snapshot=net.metrics_snapshot(),
        ops=attempted, attempted=attempted, failed=failed,
        invariants={"9 accepted": accepted == 9,
                    "2 rejected by delivery": all(
                        set(results[name]["verdicts"].values())
                        == {"rejected:delivery"} for name in REJECTED)},
        extra={"net.topology.nodes": len(net.nodes),
               "jit.pipeline.cache_hits": hits,
               "jit.pipeline.cache_misses": misses})


WORKLOADS: dict[str, Callable[[int, str, PhaseClock], Outcome]] = {
    "scale_udp": scale_udp,
    "http_asp": _http("asp"),
    "http_builtin": _http("builtin"),
    "audio_adapt": audio_adapt,
    "asp_burst": asp_burst,
    "deploy_cold": deploy_cold,
}
