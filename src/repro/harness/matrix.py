"""Scenario matrices: the paper's evaluation as declarative data.

``standard_matrix()`` is figures 3–8 at full reproduction scale — the
matrix ``runx sweep`` runs by default (its wall times land in the
result store's ``sweep.json``).
``smoke_matrix()`` is the same coverage at CI scale (seconds, tagged
``smoke``).  ``report_matrix(scale)`` is exactly the set of scenarios
:mod:`repro.experiments.report` formats, at ``quick`` or ``full``
scale; its full-scale parameters coincide with the standard matrix, so
a report regeneration after a standard sweep is pure cache hits.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..experiments.microbench import ENGINES
from .scenario import Scenario

#: The figure 7 offered-load levels (bps) reported in EXPERIMENTS.md.
GAP_SWEEP_LOADS = (800_000, 1_500_000, 1_900_000)


@dataclass(frozen=True)
class Scale:
    """Report scale: simulated durations and sizes per section."""
    name: str
    audio_duration: float
    gap_duration: float
    http_duration: float
    http_clients: int
    mpeg_duration: float
    microbench_packets: int


FULL = Scale(name="full", audio_duration=45.0, gap_duration=25.0,
             http_duration=12.0, http_clients=8, mpeg_duration=15.0,
             microbench_packets=20_000)
QUICK = Scale(name="quick", audio_duration=18.0, gap_duration=8.0,
              http_duration=6.0, http_clients=4, mpeg_duration=8.0,
              microbench_packets=2_000)


def report_matrix(scale: Scale) -> list[Scenario]:
    """The scenarios the report reads, one per figure row group."""
    pre = scale.name
    tags = frozenset({"report", scale.name})
    scenarios = [
        Scenario(f"{pre}/fig3", "fig3", {"repeats": 5}, seed=0,
                 tags=tags | {"fig3"}),
        Scenario(f"{pre}/fig6", "audio",
                 {"duration": scale.audio_duration}, seed=7,
                 tags=tags | {"fig6", "audio"}),
        Scenario(f"{pre}/fig7", "audio_gap_sweep",
                 {"load_levels_bps": list(GAP_SWEEP_LOADS),
                  "duration": scale.gap_duration}, seed=7,
                 tags=tags | {"fig7", "audio"}),
    ]
    for mode in ("single", "asp", "builtin", "disjoint"):
        scenarios.append(Scenario(
            f"{pre}/fig8/{mode}", "http",
            {"mode": mode, "n_clients": scale.http_clients,
             "duration": scale.http_duration,
             "warmup": scale.http_duration / 4}, seed=11,
            tags=tags | {"fig8", "http"}))
    for use_asps, label in ((True, "asps"), (False, "plain")):
        scenarios.append(Scenario(
            f"{pre}/mpeg/{label}", "mpeg",
            {"use_asps": use_asps, "n_clients": 3,
             "duration": scale.mpeg_duration}, seed=23,
            tags=tags | {"mpeg"}))
    for engine in ENGINES:
        scenarios.append(Scenario(
            f"{pre}/microbench/{engine}", "microbench",
            {"engine": engine,
             "n_packets": scale.microbench_packets}, seed=0,
            tags=tags | {"microbench"}))
    return scenarios


def standard_matrix() -> list[Scenario]:
    """The full-scale evaluation matrix."""
    scenarios = [
        Scenario(s.name.replace("full/", "standard/", 1), s.experiment,
                 s.params, seed=s.seed, tags=s.tags | {"standard"})
        for s in report_matrix(FULL)]
    scenarios.append(Scenario(
        "standard/images", "images", {"distillation": True}, seed=31,
        tags=frozenset({"standard", "images"})))
    scenarios.append(Scenario(
        "standard/scale", "scale",
        {"n_clusters": 16, "hosts_per_cluster": 8,
         "packets_per_host": 8},
        seed=5, tags=frozenset({"standard", "scale"})))
    return scenarios


def smoke_matrix() -> list[Scenario]:
    """Tiny versions of every experiment, for CI (tagged ``smoke``)."""
    def tags(*extra: str) -> frozenset[str]:
        return frozenset({"smoke", *extra})

    return [
        Scenario("smoke/fig3", "fig3", {"repeats": 1}, seed=0,
                 tags=tags("fig3")),
        Scenario("smoke/audio", "audio", {"duration": 6.0}, seed=7,
                 tags=tags("audio")),
        Scenario("smoke/gap-sweep", "audio_gap_sweep",
                 {"load_levels_bps": [1_900_000], "duration": 4.0},
                 seed=7, tags=tags("audio")),
        Scenario("smoke/http-asp", "http",
                 {"mode": "asp", "n_clients": 2, "duration": 4.0,
                  "warmup": 1.0}, seed=11, tags=tags("http")),
        Scenario("smoke/http-single", "http",
                 {"mode": "single", "n_clients": 2, "duration": 4.0,
                  "warmup": 1.0}, seed=11, tags=tags("http")),
        Scenario("smoke/mpeg", "mpeg",
                 {"use_asps": True, "n_clients": 2, "duration": 6.0},
                 seed=23, tags=tags("mpeg")),
        Scenario("smoke/images", "images", {"distillation": True},
                 seed=31, tags=tags("images")),
        Scenario("smoke/scale", "scale",
                 {"n_clusters": 4, "hosts_per_cluster": 3,
                  "packets_per_host": 4},
                 seed=5, tags=tags("scale")),
        Scenario("smoke/microbench-closure", "microbench",
                 {"engine": "closure", "n_packets": 2_000}, seed=0,
                 tags=tags("microbench")),
        Scenario("smoke/microbench-builtin", "microbench",
                 {"engine": "builtin", "n_packets": 2_000}, seed=0,
                 tags=tags("microbench")),
    ]


def chaos_matrix() -> list[Scenario]:
    """Fault/lifecycle drills: the poisoned-ASP drill plus the audio
    and HTTP experiments under scripted link faults.  The
    ``chaos-smoke`` tag marks the CI-scale subset (the drill itself is
    already CI-scale; the app profiles get short durations)."""
    def tags(*extra: str) -> frozenset[str]:
        return frozenset({"chaos", *extra})

    return [
        Scenario("chaos/drill-16", "chaos",
                 {"profile": "drill", "n_routers": 16,
                  "duration": 12.0}, seed=5,
                 tags=tags("drill", "chaos-smoke")),
        Scenario("chaos/drill-4", "chaos",
                 {"profile": "drill", "n_routers": 4, "duration": 10.0},
                 seed=13, tags=tags("drill")),
        Scenario("chaos/upgrade-16", "upgrade",
                 {"n_routers": 16, "duration": 8.0}, seed=5,
                 tags=tags("upgrade", "chaos-smoke")),
        Scenario("chaos/audio-faults", "chaos",
                 {"profile": "audio", "duration": 20.0}, seed=7,
                 tags=tags("audio")),
        Scenario("chaos/audio-faults-smoke", "chaos",
                 {"profile": "audio", "duration": 8.0}, seed=7,
                 tags=tags("audio", "chaos-smoke")),
        Scenario("chaos/http-faults", "chaos",
                 {"profile": "http", "duration": 10.0}, seed=11,
                 tags=tags("http")),
        Scenario("chaos/http-faults-smoke", "chaos",
                 {"profile": "http", "duration": 6.0}, seed=11,
                 tags=tags("http", "chaos-smoke")),
    ]


def web_matrix() -> list[Scenario]:
    """The overload drill (DESIGN §14): every attack shape with the
    shedding defense on and off, plus the poisoned-shedder chaos cell.
    The ``web-smoke`` tag marks the CI subset: the no-attack baseline
    and the two floor-gated attacks (syn, elephant) at short duration —
    exactly the cells the goodput-retention assertions in CI read."""
    def tags(*extra: str) -> frozenset[str]:
        return frozenset({"web", *extra})

    scenarios = []
    for attack in ("none", "flash", "syn", "elephant"):
        for shedding in (False, True):
            label = "shed" if shedding else "open"
            smoke = (("web-smoke",) if attack in ("none", "syn",
                                                  "elephant") else ())
            scenarios.append(Scenario(
                f"web/{attack}-{label}", "web",
                {"attack": attack, "shedding": shedding,
                 "duration": 6.0, "warmup": 2.0}, seed=17,
                tags=tags(attack, *smoke)))
    # chaos: the poisoned shedder must trip the breaker and degrade
    # the gateway to standard IP without killing the run
    scenarios.append(Scenario(
        "web/syn-shed-poisoned", "web",
        {"attack": "syn", "shedding": True, "duration": 6.0,
         "warmup": 2.0, "poison_at": 3.0}, seed=17,
        tags=tags("syn", "poison", "web-smoke")))
    return scenarios


MATRICES = {
    "standard": standard_matrix,
    "smoke": smoke_matrix,
    "chaos": chaos_matrix,
    "web": web_matrix,
    "report-quick": lambda: report_matrix(QUICK),
    "report-full": lambda: report_matrix(FULL),
}


def matrix(name: str) -> list[Scenario]:
    """A named matrix, or ``all`` for every scenario of every matrix
    (deduplicated by name)."""
    if name == "all":
        seen: dict[str, Scenario] = {}
        for factory in MATRICES.values():
            for scenario in factory():
                seen.setdefault(scenario.name, scenario)
        return list(seen.values())
    try:
        return MATRICES[name]()
    except KeyError:
        raise KeyError(f"unknown matrix {name!r}; pick from "
                       f"{sorted(MATRICES) + ['all']}") from None
