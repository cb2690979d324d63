"""Regression: tier-3 batching must not show up in experiment records.

Batch-drain delivery changes *how* routers execute ASP code, never
*what* the experiments measure: the same scenarios at the same seeds
must produce byte-identical canonical records with batching on
(``ROUTER_BATCH_SIZE = 64``) and off (``0`` forces per-packet
delivery).  Batch-grouping telemetry is execution-strategy detail and
is excluded from the canonical record (see
``repro.experiments.result._is_batch_telemetry``).

The scenarios' routers run the default ``source`` engine, which brings
no batch fold, so they run every packet inline at either setting; the
closure-router checks below keep the identity about a router that
really batches.
"""

import json

import repro.net.node as node_mod
from repro.harness import Runner, Scenario
from repro.experiments.result import deterministic_metrics
from repro.net import Network
from repro.net.packet import tcp_packet, udp_packet
from repro.runtime import PlanPLayer

from ..conftest import records_by_name

SCENARIOS = [
    Scenario("ident/audio", "audio", {"duration": 2.0}, seed=7),
    Scenario("ident/http", "http",
             {"mode": "asp", "n_clients": 2, "duration": 3.0,
              "warmup": 1.0}, seed=3),
    Scenario("ident/mpeg", "mpeg", {"n_clients": 2, "duration": 3.0},
             seed=5),
]


def sweep_with_batch_size(batch_size):
    old = node_mod.ROUTER_BATCH_SIZE
    node_mod.ROUTER_BATCH_SIZE = batch_size
    try:
        return Runner(use_cache=False, workers=1).sweep(SCENARIOS)
    finally:
        node_mod.ROUTER_BATCH_SIZE = old


class TestBatchingByteIdentity:
    def test_records_byte_identical_on_vs_off(self):
        on = records_by_name(sweep_with_batch_size(64))
        off = records_by_name(sweep_with_batch_size(0))
        assert set(on) == set(off) == {s.name for s in SCENARIOS}
        for name in on:
            a = json.dumps(on[name], sort_keys=True,
                           separators=(",", ":")).encode()
            b = json.dumps(off[name], sort_keys=True,
                           separators=(",", ":")).encode()
            assert a == b, name


#: two overloads (so a burst splits into runs), state threaded through
#: every row, and a row that faults on an empty TCP payload (so a fold
#: commits a prefix, contains the row and resumes)
FOLDED = """\
channel network(ps : int, ss : int, p : ip*tcp*blob) is
  (let val q : int = ps / blobLen(#3 p) in
     (OnRemote(network, p); (ps + q + 1, ss + 1)) end)
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps * 3 + blobLen(#3 p), ss))
"""


def router_bursts(batch_size, backend):
    """Bursts of mixed TCP/UDP packets handed to one router within one
    event each; what its downstream host receives, the deterministic
    metrics, and the layer."""
    old = node_mod.ROUTER_BATCH_SIZE
    node_mod.ROUTER_BATCH_SIZE = batch_size
    try:
        net = Network(seed=9)
        a = net.add_host("a")
        r = net.add_router("r")
        b = net.add_host("b")
        net.link(a, r)
        net.link(r, b)
        net.finalize()
        layer = PlanPLayer(r)
        layer.install(FOLDED, backend=backend, verify=False)
        got = []
        b.delivery_taps.append(lambda p: got.append(
            (net.sim.now, type(p.transport).__name__, p.transport.dst_port,
             p.payload.hex())))

        def burst(k):
            for i in range(40):
                payload = b"" if (i + k) % 13 == 0 else bytes(i % 5 + 1)
                make = tcp_packet if (i // 6 + k) % 3 else udp_packet
                r.receive(make(a.address, b.address, 1, 1000 + i,
                               payload), None)
        for k in range(4):
            net.sim.schedule(0.01 * k, lambda k=k: burst(k))
        net.run()
        return got, deterministic_metrics(net.obs.snapshot()), layer
    finally:
        node_mod.ROUTER_BATCH_SIZE = old


def canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


class TestBatchingRouterIdentity:
    def test_a_batching_router_is_byte_identical_on_vs_off(self):
        got_on, metrics_on, on = router_bursts(64, "closure")
        got_off, metrics_off, off = router_bursts(0, "closure")
        assert on.stats.fastpath_batches > 0
        assert on.stats.batched_packets > 0
        assert off.stats.fastpath_batches == 0
        assert on.stats.runtime_errors > 0  # a fold contained a row
        assert len(got_on) == 160
        assert canonical(got_on) == canonical(got_off)
        assert canonical(metrics_on) == canonical(metrics_off)

    def test_an_engine_without_a_fold_never_batches(self):
        got, metrics, layer = router_bursts(64, "source")
        assert layer.batch_size == 64
        assert layer.stats.fastpath_batches == 0
        assert layer.stats.batched_packets == 0
        got_folded, metrics_folded, _ = router_bursts(64, "closure")
        assert canonical(got) == canonical(got_folded)
        assert canonical(metrics) == canonical(metrics_folded)


class TestBatchTelemetryFilter:
    def test_batch_counters_stripped_from_record(self):
        metrics = {
            "node.r.planp.fastpath_batches": 3,
            "node.r.planp.batched_packets": 170,
            "node.r.planp.batch_size.count": 3,
            "node.r.planp.batch_size.max": 64,
            "node.r.planp.packets_processed": 170,
            "node.b.delivered": 170,
        }
        kept = deterministic_metrics(metrics)
        assert "node.r.planp.packets_processed" in kept
        assert "node.b.delivered" in kept
        assert not any("batch" in key for key in kept)
