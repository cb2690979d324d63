"""Packet-dispatch fast path and program-cache benchmarks (this
implementation's perf work, not a paper figure).

Two claims are measured and asserted:

1. classifying + decoding a packet through the precomputed match table
   is at least 2x faster than the structural baseline the layer used
   before the table existed (two structural match walks plus a
   structural ``codec.decode`` per packet).  That path is deleted, so
   its cost is a frozen, labelled number — the last live measurement,
   taken at the commit that removed it — not a live call;
2. deploying one real ASP (the Figure 3 connection monitor) to 16
   routers over the network is at least 5x faster wall-clock with the
   content-addressed program cache than without, with >= 15 of the 16
   installs acknowledging a cache hit.

Results land in ``BENCH_dispatch.json`` at the repo root.
"""

import json
import time
from pathlib import Path

import pytest

from repro.asps.mpeg import mpeg_monitor_asp
from repro.jit import pipeline
from repro.jit.pipeline import ProgramCache
from repro.net import Network
from repro.net.packet import tcp_packet, udp_packet
from repro.runtime import PlanPLayer, codec
from repro.runtime.dispatch import group_runs
from repro.runtime.netdeploy import DeploymentManager, DeploymentService

from tests.runtime.test_fastpath import structural_match

from .conftest import print_table, shape_check

RESULTS_FILE = Path(__file__).parent.parent / "BENCH_dispatch.json"

DISPATCH_PROGRAM = """
channel network(ps : int, ss : unit, p : ip*udp*host*int) is
  (deliver(p); (ps + 1, ss))
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
channel network(ps : int, ss : unit, p : ip*tcp*char*blob) is
  (OnRemote(network, p); (ps + 1, ss))
channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
"""

#: us/packet of the deleted structural path (``_match`` twice plus
#: ``codec.decode``) on this file's packet mix, as last measured live:
#: BENCH_dispatch.json at commit 54ec269
STRUCTURAL_BASELINE_US = 13.89

N_ROUTERS = 16
DEPLOY_TRIALS = 3


def _merge_results(update: dict) -> None:
    data = {}
    if RESULTS_FILE.exists():
        data = json.loads(RESULTS_FILE.read_text())
    data.update(update)
    RESULTS_FILE.write_text(json.dumps(data, indent=2) + "\n")


def _dispatch_layer():
    net = Network(seed=11)
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    net.link(a, r)
    net.link(r, b)
    net.finalize()
    layer = PlanPLayer(r)
    layer.install(DISPATCH_PROGRAM)
    packets = [
        udp_packet(a.address, b.address, 1, 2, bytes(8)),
        udp_packet(a.address, b.address, 1, 2, bytes(100)),
        tcp_packet(a.address, b.address, 1, 80, b"G" + bytes(40)),
        tcp_packet(a.address, b.address, 1, 80, b""),
    ]
    return layer, packets


class TestDispatchMicrobench:
    @pytest.fixture(scope="class")
    def speedup(self):
        layer, packets = _dispatch_layer()

        lookup = layer.core.lookup

        def fastpath(ps):
            for p in ps:
                decl, decoder, _plan = lookup(p)
                decoder(p)

        batch = packets * 250
        fastpath(batch)  # warm up

        def time_once():
            start = time.perf_counter()
            fastpath(batch)
            return time.perf_counter() - start

        fast_us = min(time_once() for _ in range(5)) / len(batch) * 1e6
        ratio = STRUCTURAL_BASELINE_US / fast_us
        print_table(
            "Dispatch: structural match vs precomputed table",
            ["path", "us/packet"],
            [["structural (2x match + decode; frozen at 54ec269)",
              f"{STRUCTURAL_BASELINE_US:.3f}"],
             ["fast path (table + prebuilt decoder)", f"{fast_us:.3f}"],
             ["speedup", f"{ratio:.1f}x"]])
        _merge_results({"dispatch": {
            "structural_us_per_packet": STRUCTURAL_BASELINE_US,
            "structural_is": "frozen: last live measurement, commit "
                             "54ec269 (the path is deleted)",
            "fastpath_us_per_packet": round(fast_us, 4),
            "speedup": round(ratio, 2),
        }})
        return ratio

    def test_fastpath_at_least_2x(self, benchmark, speedup):
        shape_check(benchmark)
        assert speedup >= 2.0

    def test_fastpath_equivalent(self, benchmark):
        shape_check(benchmark)
        layer, packets = _dispatch_layer()
        for p in packets:
            decl, decoder, _plan = layer.core.lookup(p)
            assert decl is structural_match(layer.loaded.info, p)
            assert decoder(p) == codec.decode(p, decl.packet_type)


BATCH_SIZE = 64


def _batches(hits, packets):
    """What the layer's drain does with a classified burst: the core's
    grouping, then one struct-of-arrays batch per run."""
    for i, j in group_runs(hits, BATCH_SIZE):
        yield hits[i][0], hits[i][2].batch_decoder().batch(packets[i:j])


class TestBatchTier:
    """Tier 3: grouping a classified burst into same-overload runs and
    decoding each run into the ``rows()`` both batch folds consume
    (``ClosureEngine.run_channel_batch``, ``jit.batching.run_rows``)
    must beat the per-packet fast path by 1.5x (CI floor; the local
    figure is the ``batch`` row of BENCH_dispatch.json).  The floor was
    2x until PR 21 compiled the per-packet decoder per layout and
    halved this ratio's *denominator* (lookup + decode 1.21 -> 0.64
    us/packet, docs/results/PR21.md) with ``rows`` where it was (0.34
    us): the batch path is no slower, its margin over the singleton
    path is smaller (~1.9x on a quiet host), and that smaller margin is
    an input to ROADMAP's batch-tier decision rule, not something to
    tune away.  The ``soa``
    row beside it is decode only — raw columns before value conversion,
    which no fold reads — and is recorded, not gated.  Every packet is
    classified once in ``wants()`` whichever tier then runs it, so the
    batch rows time what the tier adds — grouping plus decode — over
    hits computed outside the clock; the fast-path row keeps its
    classification, as it always has."""

    @pytest.fixture(scope="class")
    def results(self):
        layer, kinds = _dispatch_layer()
        stream = []
        for _ in range(4):
            for kind in kinds:
                stream.extend(kind.copy() for _ in range(BATCH_SIZE))

        lookup = layer.core.lookup
        hits = [lookup(p) for p in stream]

        def fastpath(ps):
            for p in ps:
                decl, decoder, _plan = lookup(p)
                decoder(p)

        def batch_soa(ps):
            # Decode only: group the burst and unpack each run's raw
            # columns.
            for decl, batch in _batches(hits, ps):
                batch.soa()

        def batch_rows(ps):
            # What production pays: every column value-converted and
            # zipped into the packet-value tuples a fold iterates.
            for decl, batch in _batches(hits, ps):
                batch.rows()

        for fn in (fastpath, batch_soa, batch_rows):  # warm up
            fn(stream)

        def time_once(fn):
            start = time.perf_counter()
            fn(stream)
            return time.perf_counter() - start

        n = len(stream)
        best = {"fastpath": [], "soa": [], "rows": []}
        for _ in range(7):  # interleaved: noise hits all paths alike
            best["fastpath"].append(time_once(fastpath))
            best["soa"].append(time_once(batch_soa))
            best["rows"].append(time_once(batch_rows))
        us = {name: min(times) / n * 1e6
              for name, times in best.items()}
        soa_speedup = us["fastpath"] / us["soa"]
        rows_speedup = us["fastpath"] / us["rows"]
        print_table(
            f"Tier 3: batched SoA decode vs per-packet fast path "
            f"(batch={BATCH_SIZE}, {n} packets, best of 7)",
            ["path", "us/packet"],
            [["per-packet fast path", f"{us['fastpath']:.3f}"],
             ["batch (rows, what the folds read)", f"{us['rows']:.3f}"],
             ["batch (SoA columns, decode only)", f"{us['soa']:.3f}"],
             ["rows speedup", f"{rows_speedup:.1f}x"],
             ["SoA speedup", f"{soa_speedup:.1f}x"]])
        _merge_results({"batch": {
            "batch_size": BATCH_SIZE,
            "fastpath_us_per_packet": round(us["fastpath"], 4),
            "rows_us_per_packet": round(us["rows"], 4),
            "rows_speedup_vs_fastpath": round(rows_speedup, 2),
            "soa_is": "decode only: raw columns before value "
                      "conversion; no batch fold reads them",
            "soa_us_per_packet": round(us["soa"], 4),
            "soa_speedup_vs_fastpath": round(soa_speedup, 2),
        }})
        return {"us": us, "speedup": rows_speedup}

    def test_batch_rows_at_least_1_5x(self, benchmark, results):
        shape_check(benchmark)
        assert results["speedup"] >= 1.5

    def test_batches_equivalent_to_serial_decode(self, benchmark):
        shape_check(benchmark)
        layer, kinds = _dispatch_layer()
        stream = [kind.copy() for kind in kinds
                  for _ in range(BATCH_SIZE)]
        batches = list(_batches([layer.core.lookup(p) for p in stream],
                                stream))
        assert [len(b) for _d, b in batches] == [BATCH_SIZE] * len(kinds)
        i = 0
        for decl, batch in batches:
            for row, p in zip(batch.rows(), batch.packets):
                assert p is stream[i]
                assert decl is structural_match(layer.loaded.info, p)
                assert row == codec.decode(p, decl.packet_type)
                i += 1
        assert i == len(stream)


def _deploy_once(cache) -> tuple[float, int]:
    """Push the monitor ASP to N_ROUTERS nodes through ``cache``;
    returns (wall seconds, number of cache-hit acks)."""
    net = Network(seed=41)
    admin = net.add_host("admin")
    routers = [net.add_router(f"r{i}") for i in range(N_ROUTERS)]
    for router in routers:
        net.link(admin, router, bandwidth=100e6)
    net.finalize()
    for router in routers:
        DeploymentService(net, router)
    manager = DeploymentManager(net, admin)
    source = mpeg_monitor_asp()
    saved = pipeline.PROGRAM_CACHE
    pipeline.PROGRAM_CACHE = cache
    try:
        start = time.perf_counter()
        xfer = manager.push(source, [r.address for r in routers])
        net.run(until=30.0)
        elapsed = time.perf_counter() - start
    finally:
        pipeline.PROGRAM_CACHE = saved
    assert manager.all_ok(xfer)
    hits = sum(1 for s in manager.status(xfer).values() if s.cache_hit)
    return elapsed, hits


class TestNetdeployCacheBench:
    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for name, make_cache in (("uncached",
                                  lambda: ProgramCache(max_entries=0)),
                                 ("cached", ProgramCache)):
            best, hits = min(_deploy_once(make_cache())
                             for _ in range(DEPLOY_TRIALS))
            out[name] = {"wall_s": best, "cache_hit_acks": hits}
        ratio = out["uncached"]["wall_s"] / out["cached"]["wall_s"]
        out["speedup"] = ratio
        print_table(
            f"Netdeploy: {N_ROUTERS}-router push of the Fig.3 monitor "
            f"ASP (best of {DEPLOY_TRIALS})",
            ["configuration", "wall s", "cache-hit acks"],
            [["uncached", f"{out['uncached']['wall_s']:.3f}",
              out["uncached"]["cache_hit_acks"]],
             ["cached", f"{out['cached']['wall_s']:.3f}",
              out["cached"]["cache_hit_acks"]],
             ["speedup", f"{ratio:.1f}x", ""]])
        _merge_results({"netdeploy_16_nodes": {
            "uncached_wall_s": round(out["uncached"]["wall_s"], 4),
            "cached_wall_s": round(out["cached"]["wall_s"], 4),
            "speedup": round(ratio, 2),
            "cache_hit_acks": out["cached"]["cache_hit_acks"],
            "n_routers": N_ROUTERS,
        }})
        return out

    def test_cached_deploy_at_least_5x_faster(self, benchmark, results):
        shape_check(benchmark)
        assert results["speedup"] >= 5.0

    def test_cache_hits_cover_all_but_first_node(self, benchmark,
                                                 results):
        shape_check(benchmark)
        assert results["cached"]["cache_hit_acks"] >= N_ROUTERS - 1
        assert results["uncached"]["cache_hit_acks"] == 0
