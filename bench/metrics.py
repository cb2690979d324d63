"""The metric catalogue, and how each value is computed from rounds.

``BENCHMARK.json`` lists the same names, units and directions (a test
keeps the two in step); this module adds what the file's fixed format
has no room for: where a number comes from and which end-to-end metric
it is expected to move, on which workload.

A *round* is the record one child process prints (see ``_child.py``).
End-to-end values come from untraced rounds only.  Per-layer values
come from the fastest traced round (``_s`` as self time, counts from the
wrappers) and from ``metrics_snapshot()`` counters, which must be
identical in every round of a run.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any

from .trace import CALIBRATION_REF_S, LAYER_OF_MODULE


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end only: share of the parent's median it may worsen by
    bound: float | None = None
    #: timed (phase clock) | counter (snapshot, exact) | traced (span
    #: self time or wrapper count) | derived (ratio of the others)
    source: str = "traced"
    #: the end-to-end metric x workload this number should move
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, "timed",
           "interpreter imports plus workload entry to the first run "
           "phase, at reference host speed"),
    Metric("run_wall_s", "s", "lower", 0.20, "timed",
           "the run phase at reference host speed"),
    Metric("total_wall_s", "s", "lower", 0.20, "timed",
           "setup_s + run_wall_s + harvest: what a `runx run` user waits"),
    Metric("ops_per_s", "1/s", "higher", 0.20, "derived",
           "operations completed per run_wall_s second: packets delivered "
           "to an endpoint; deployments on deploy_cold"),
    Metric("peak_rss_mb", "MB", "lower", 0.05, "timed",
           "child ru_maxrss at exit; median of rounds"),
)

_RUN = "run_wall_s, ops_per_s"
_SIM = f"{_RUN} on scale_udp first; 14-21 % on http_*/audio_adapt"
_LINK = f"{_RUN} on scale_udp (~40 %), http_* (25-30 %), audio_adapt"
_NODE = f"{_RUN} on scale_udp (~29 %), 13-20 % elsewhere"
_SETUP = "setup_s, total_wall_s, peak_rss_mb on scale_udp"
_TCP = f"{_RUN} on http_asp and http_builtin equally; none elsewhere"
_ASP = ("ops_per_s on asp_burst (most), audio_adapt, http_asp and "
        "derived.asp_tax; no move on http_builtin, scale_udp")
_DEPLOY = ("ops_per_s on deploy_cold; setup_s on http_asp, audio_adapt, "
           "asp_burst")
_SIMULATED = "simulated result: must not move for a host-speed change"
_QUALITY = "quality of the measurement itself"


def _layer(prefix: str, moves: str, *rows: tuple) -> list[Metric]:
    return [Metric(f"{prefix}.{name}", unit, better, None, source, moves)
            for name, unit, better, source in rows]


PER_LAYER = tuple(
    _layer("net.sim", _SIM,
           ("events", "count", "lower", "counter"),
           ("scheduled", "count", "lower", "traced"),
           ("self_s", "s", "lower", "traced"),
           ("us_per_event", "us", "lower", "derived"),
           ("events_per_pkt", "ratio", "lower", "derived"),
           ("cancelled_share", "share", "lower", "derived"),
           ("heap_peak", "count", "lower", "traced"))
    + _layer("net.link", _LINK,
             ("sends", "count", "lower", "traced"),
             ("self_s", "s", "lower", "traced"),
             ("pkts_sent", "count", "lower", "counter"),
             ("queue_drops", "count", "lower", "counter"),
             ("lost", "count", "lower", "counter"))
    + _layer("net.node", _NODE,
             ("self_s", "s", "lower", "traced"),
             ("received", "count", "lower", "counter"),
             ("forwarded", "count", "lower", "counter"),
             ("delivered", "count", "higher", "counter"),
             ("asp_handled", "count", "lower", "counter"),
             ("dropped", "count", "lower", "counter"))
    + _layer("net.routing", _SETUP,
             ("build_s", "s", "lower", "traced"),
             ("lookups", "count", "lower", "traced"))
    + _layer("net.topology", _SETUP,
             ("build_s", "s", "lower", "traced"),
             ("nodes", "count", "lower", "counter"),
             ("snapshot_s", "s", "lower", "traced"))
    + _layer("experiments", _SETUP,
             ("harvest_s", "s", "lower", "timed"),
             ("self_s", "s", "lower", "traced"))
    + _layer("net.udp", f"{_RUN} on scale_udp, audio_adapt (<= 5 %)",
             ("self_s", "s", "lower", "traced"),
             ("datagrams", "count", "lower", "counter"))
    + _layer("net.tcp", _TCP,
             ("self_s", "s", "lower", "traced"),
             ("segments_in", "count", "lower", "counter"),
             ("segments_out", "count", "lower", "counter"),
             ("retransmissions", "count", "lower", "counter"),
             ("connections", "count", "lower", "traced"),
             ("syn_backlog_drops", "count", "lower", "counter"))
    + _layer("runtime.planp_layer", _ASP,
             ("self_s", "s", "lower", "traced"),
             ("incl_us_per_pkt", "us", "lower", "derived"),
             ("packets_processed", "count", "lower", "counter"),
             ("packets_emitted", "count", "lower", "counter"),
             ("packets_delivered", "count", "lower", "counter"),
             ("fastpath_share", "share", "higher", "derived"),
             ("batch_share", "share", "higher", "derived"),
             ("mean_batch", "count", "higher", "derived"),
             ("runtime_errors", "count", "lower", "counter"))
    + _layer("runtime.codec", _ASP,
             ("decode_self_s", "s", "lower", "traced"),
             ("encode_self_s", "s", "lower", "traced"),
             ("decodes", "count", "lower", "traced"),
             ("encodes", "count", "lower", "traced"))
    + _layer("jit.engine", _ASP,
             ("self_s", "s", "lower", "traced"),
             ("runs", "count", "lower", "traced"),
             ("us_per_run", "us", "lower", "derived"))
    + _layer("lang", _DEPLOY,
             ("parse_s", "s", "lower", "traced"),
             ("typecheck_s", "s", "lower", "traced"),
             ("source_lines", "count", "lower", "traced"))
    + _layer("analysis", _DEPLOY,
             ("verify_s", "s", "lower", "traced"),
             ("wire_s", "s", "lower", "traced"),
             ("rejected", "count", "lower", "traced"))
    + _layer("jit.pipeline",
             _DEPLOY + "; trades against jit.engine.us_per_run, so an "
             "engine change reports deploy_cold and asp_burst together",
             ("codegen_s.interpreter", "s", "lower", "traced"),
             ("codegen_s.closure", "s", "lower", "traced"),
             ("codegen_s.source", "s", "lower", "traced"),
             ("cache_hits", "count", "higher", "counter"),
             ("cache_misses", "count", "lower", "counter"))
    + _layer("runtime.deployment", _DEPLOY,
             ("install_self_s", "s", "lower", "traced"),
             ("installs", "count", "lower", "traced"))
    + _layer("apps.http", _SIMULATED,
             ("self_s", "s", "lower", "traced"),
             ("completed", "count", "higher", "counter"),
             ("failed", "count", "lower", "counter"),
             ("sim_throughput_rps", "1/s", "higher", "counter"),
             ("sim_mean_latency_ms", "ms", "lower", "counter"),
             ("sim_balance_ratio", "ratio", "higher", "counter"))
    + _layer("apps.audio", _SIMULATED,
             ("self_s", "s", "lower", "traced"),
             ("frames_sent", "count", "higher", "counter"),
             ("frames_received", "count", "higher", "counter"),
             ("sim_silent_periods", "count", "lower", "counter"))
    + _layer("bench", _QUALITY,
             ("import_s", "s", "lower", "timed"),
             ("trace_overhead_ratio", "ratio", "lower", "derived"),
             ("trace_spans", "count", "lower", "traced"),
             ("round_spread", "share", "lower", "derived"),
             ("ledger_gap_share", "share", "lower", "derived"),
             ("raw_run_wall_s", "s", "lower", "timed"),
             ("host_speed", "ratio", "higher", "timed")))

#: layers whose run-phase self time the ledger is made of: every named
#: layer; time in a module the tracer cannot place would show as a gap
LEDGER_LAYERS = sorted({layer for _prefix, layer in LAYER_OF_MODULE})

PLANP = "runtime.planp_layer"

#: the ledger must close to within this share of the traced run phase
LEDGER_TOLERANCE = 0.02


# -- from one round ----------------------------------------------------------------

def counts_from_snapshot(snapshot: dict[str, Any],
                         extra: dict[str, float]) -> dict[str, float]:
    """Fold a ``metrics_snapshot()`` into network-wide layer counters
    (a 5 000-node snapshot is far too big to hand to the parent)."""
    def total(prefix: str, *suffixes: str) -> int:
        return sum(value for key, value in snapshot.items()
                   if key.startswith(prefix) and key.endswith(suffixes)
                   and not isinstance(value, bool))

    cache = "global.program_cache."
    counts = {
        "net.sim.events": snapshot.get("sim.events_processed", 0),
        "net.link.pkts_sent": total("link.", ".packets_sent"),
        "net.link.queue_drops": total("link.", ".packets_dropped"),
        "net.link.lost": total("link.", ".packets_lost"),
        "net.node.received": total("node.", ".received"),
        "net.node.forwarded": total("node.", ".forwarded"),
        "net.node.delivered": total("node.", ".delivered"),
        "net.node.asp_handled": total("node.", ".asp_handled"),
        "net.node.dropped": total(
            "node.", ".dropped_ttl", ".dropped_no_route",
            ".dropped_not_local", ".dropped_down"),
        "net.udp.datagrams": total("node.", ".udp.datagrams_out"),
        "net.tcp.segments_in": total("node.", ".tcp.segments_in"),
        "net.tcp.segments_out": total("node.", ".tcp.segments_out"),
        "net.tcp.retransmissions": total("node.", ".tcp.retransmissions"),
        "net.tcp.syn_backlog_drops": total("node.",
                                           ".tcp.syn_backlog_drops"),
        "jit.pipeline.cache_hits": total(cache, "_hits"),
        "jit.pipeline.cache_misses": total(cache, "_misses"),
    }
    for name in ("packets_processed", "packets_emitted", "packets_delivered",
                 "runtime_errors", "fastpath_dispatches",
                 "structural_dispatches", "fastpath_batches",
                 "batched_packets"):
        counts[f"{PLANP}.{name}"] = total("node.", f".planp.{name}")
    counts.update(extra)
    return counts


# -- from the rounds of one run ------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fastest(rounds: list[dict], phase: str) -> float:
    return min(r["phases"][phase] for r in rounds)


def calibrated_s(rounds: list[dict], phase: str) -> float:
    """One phase in seconds at reference host speed.

    Slice ``k`` is the same deterministic work in every round.  Each
    observation of it is scaled by how fast the host ran the calibration
    loop just before and after, the median over rounds is the slice's
    cost, and the phase is the sum of its slices.  Measured on the
    2-core box (150 rounds of ``http_builtin``, groups of 5): the
    fastest whole round spread 5.2 % between groups and ranged 22 %;
    this, 0.9 % and 9 % (README, "Why the numbers repeat")."""
    scaled = ([seconds * CALIBRATION_REF_S / passed
               for seconds, passed in zip(r["slices"][phase]["seconds"],
                                          r["slices"][phase]["passes"],
                                          strict=True)]
              for r in rounds)
    return sum(map(statistics.median, zip(*scaled, strict=True)))


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    setup = calibrated_s(rounds, "setup")
    run = calibrated_s(rounds, "run")
    return {
        "setup_s": setup,
        "run_wall_s": run,
        "total_wall_s": setup + run + calibrated_s(rounds, "harvest"),
        "ops_per_s": rounds[0]["ops"] / run,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def round_spread(rounds: list[dict]) -> float:
    walls = [r["phases"]["run_wall_s"] for r in rounds]
    return (max(walls) - min(walls)) / min(walls)


class _Ledger:
    """Read access to one traced round's span ledger."""

    def __init__(self, trace: dict[str, Any]):
        self._phases = {
            phase: {tuple(key.split("|", 1)): cell
                    for key, cell in acc.items()}
            for phase, acc in trace["ledger"].items()}

    def _cells(self, layer: str, entry: str | None, phases: tuple):
        for phase in phases:
            for (lay, ent), cell in self._phases[phase].items():
                if lay == layer and (entry is None or ent == entry):
                    yield cell

    def self_s(self, layer: str, entry: str | None = None,
               phases: tuple = ("setup", "run", "harvest")) -> float:
        return sum(cell[0] for cell in self._cells(layer, entry, phases))

    def run_self_s(self, layer: str, entry: str | None = None) -> float:
        return self.self_s(layer, entry, ("run",))

    def calls(self, layer: str, entry: str) -> int:
        return sum(cell[1] for cell in self._cells(
            layer, entry, ("setup", "run", "harvest")))


def ledger_gap_share(traced: dict) -> float:
    ledger = _Ledger(traced["trace"])
    wall = traced["phases"]["run_wall_s"]
    covered = sum(ledger.run_self_s(layer) for layer in LEDGER_LAYERS)
    return abs(wall - covered) / wall


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    best = min(traced, key=lambda r: r["phases"]["run_wall_s"])
    trace = best["trace"]
    led = _Ledger(trace)
    c = best["counts"]
    t = trace["counts"]
    run = led.run_self_s

    events = c["net.sim.events"]
    delivered = c["net.node.delivered"]
    sim_self = run("net.sim")
    processed = c[PLANP + ".packets_processed"]
    dispatches = (c[PLANP + ".fastpath_dispatches"]
                  + c[PLANP + ".structural_dispatches"])
    engine_self = run("jit.engine")
    engine_runs = (led.calls("jit.engine", "run_channel")
                   + led.calls("jit.engine", "run_channel_batch"))
    topology_all = led.self_s("net.topology")
    snapshot_s = led.self_s("net.topology", "Network.metrics_snapshot")

    values = {
        "net.sim.events": events,
        "net.sim.scheduled": t["net.sim.scheduled"],
        "net.sim.self_s": sim_self,
        "net.sim.us_per_event": _ratio(sim_self, events) * 1e6,
        "net.sim.events_per_pkt": _ratio(events, delivered),
        "net.sim.cancelled_share": _ratio(t["net.sim.cancelled"],
                                          t["net.sim.scheduled"]),
        "net.sim.heap_peak": t["net.sim.heap_peak"],
        "net.link.sends": led.calls("net.link", "Interface.send"),
        "net.link.self_s": run("net.link"),
        "net.node.self_s": run("net.node"),
        "net.routing.build_s": led.self_s("net.routing"),
        "net.routing.lookups": t["net.routing.lookups"],
        "net.topology.build_s": topology_all - snapshot_s,
        "net.topology.snapshot_s": snapshot_s,
        "experiments.harvest_s": best["phases"]["harvest_s"],
        "experiments.self_s": run("experiments"),
        "net.udp.self_s": run("net.udp"),
        "net.tcp.self_s": run("net.tcp"),
        "net.tcp.connections": led.calls("net.tcp", "TcpStack.connect"),
        "runtime.planp_layer.self_s": run("runtime.planp_layer"),
        "runtime.planp_layer.incl_us_per_pkt": _ratio(
            trace["inclusive_s"].get("runtime.planp_layer", 0.0),
            processed) * 1e6,
        "runtime.planp_layer.fastpath_share": _ratio(
            c[PLANP + ".fastpath_dispatches"], dispatches),
        "runtime.planp_layer.batch_share": _ratio(
            c[PLANP + ".batched_packets"], processed),
        "runtime.planp_layer.mean_batch": _ratio(
            c[PLANP + ".batched_packets"], c[PLANP + ".fastpath_batches"]),
        "runtime.codec.decode_self_s": (run("runtime.codec", "decode")
                                        + run("runtime.codec",
                                              "decode_batch")),
        "runtime.codec.encode_self_s": run("runtime.codec", "encode"),
        "runtime.codec.decodes": (led.calls("runtime.codec", "decode")
                                  + t["runtime.codec.batch_decodes"]),
        "runtime.codec.encodes": led.calls("runtime.codec", "encode"),
        "jit.engine.self_s": engine_self,
        "jit.engine.runs": engine_runs,
        "jit.engine.us_per_run": _ratio(engine_self, engine_runs) * 1e6,
        "lang.parse_s": led.self_s("lang", "parse"),
        "lang.typecheck_s": led.self_s("lang", "typecheck"),
        "lang.source_lines": t["lang.source_lines"],
        "analysis.verify_s": led.self_s("analysis", "verify"),
        "analysis.wire_s": led.self_s("analysis", "wire"),
        "analysis.rejected": t["analysis.rejected"],
        "runtime.deployment.install_self_s": led.self_s(
            "runtime.deployment"),
        "runtime.deployment.installs": led.calls(
            "runtime.deployment", "Deployment.install"),
        "apps.http.self_s": run("apps.http"),
        "apps.audio.self_s": run("apps.audio"),
        "bench.import_s": statistics.median(r["phases"]["import_s"]
                                            for r in untraced),
        "bench.trace_overhead_ratio": (
            best["phases"]["run_wall_s"]
            / fastest(untraced, "run_wall_s")),
        "bench.trace_spans": trace["n_spans"],
        "bench.round_spread": round_spread(untraced),
        "bench.ledger_gap_share": ledger_gap_share(best),
        "bench.raw_run_wall_s": fastest(untraced, "run_wall_s"),
        "bench.host_speed": statistics.median(
            CALIBRATION_REF_S / passed for r in untraced
            for passed in r["slices"]["run"]["passes"]),
    }
    for backend in ("interpreter", "closure", "source"):
        values[f"jit.pipeline.codegen_s.{backend}"] = led.self_s(
            "jit.pipeline", f"codegen.{backend}")
    for metric in PER_LAYER:
        if metric.name in values:
            continue
        # a counter: it lives in the round's counts under its own name
        values[metric.name] = c.get(metric.name, 0)
    return {metric.name: float(values[metric.name]) for metric in PER_LAYER}
