"""Tier-3 batch path: error containment and telemetry.

A batch must never weaken the per-packet containment contract: one
malformed or faulting packet inside a 64-row batch is contained exactly
as it would be serially — the other 63 run through the ASP, the bad one
falls back to standard IP, the circuit breaker sees the same error
stream, and no struct-of-arrays state leaks into the next batch.
"""

import dataclasses

import repro.net.node as node_mod
from repro.net import Network
from repro.net.packet import tcp_packet
from repro.runtime import Deployment, PlanPLayer
from repro.runtime.lifecycle import LifecycleManager, LifecyclePolicy

BATCH = 64

FORWARD = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
           "(OnRemote(network, p); (ps + 1, ss))")

#: decodes a leading char, so an in-flight truncation breaks decode
CHAR_VIEW = ("channel network(ps : int, ss : unit, "
             "p : ip*tcp*char*blob) is "
             "(OnRemote(network, p); (ps + 1, ss))")

#: raises DivideByZero on empty payloads (unverifiable on purpose)
FAULT_ON_EMPTY = (
    "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
    "(let val q : int = ps / blobLen(#3 p) in "
    "(OnRemote(network, p); (ps + 1, ss)) end)")


def router_between(seed=5):
    net = Network(seed=seed)
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    net.link(a, r)
    net.link(r, b)
    net.finalize()
    return net, a, r, b, PlanPLayer(r)


def burst(net, layer, packets):
    """Hand the layer a multi-packet arrival in ONE sim event — the
    only way real batches (> 1 row) form, since links serialize one
    packet per delivery event."""
    def fire():
        for p in packets:
            if layer.wants(p, None):
                layer.process(p, None)
            else:
                layer.node.standard_processing(p, None)
    net.sim.schedule(0.0, fire)
    net.sim.run()


class TestMalformedRowContainment:
    def make_stream(self, a, b, n=BATCH, bad_at=21):
        packets = [tcp_packet(a.address, b.address, 1, 80, b"Q")
                   for _ in range(n)]
        self.bad = packets[bad_at]
        return packets

    def run_corrupted(self):
        net, a, r, b, layer = router_between()
        layer.install(CHAR_VIEW)
        packets = self.make_stream(a, b)
        got = []
        b.delivery_taps.append(lambda p: got.append(p))

        def fire():
            for p in packets:
                assert layer.wants(p, None)
                layer.process(p, None)
            # Classified with an intact payload, corrupted before the
            # drain runs: batch decode meets a byte that is not there.
            self.bad.payload = b""
        net.sim.schedule(0.0, fire)
        net.sim.run()
        return net, r, layer, got

    def test_sixty_three_rows_survive_one_malformed(self):
        net, r, layer, got = self.run_corrupted()
        assert layer.stats.packets_processed == BATCH
        assert layer.stats.runtime_errors == 1
        assert layer.protocol_state == BATCH - 1  # ASP saw 63 rows
        assert len(got) == BATCH  # the bad one arrived via standard IP
        assert r.up

    def test_decode_reason_and_breaker_feed(self):
        net, r, layer, _got = self.run_corrupted()
        errors = list(net.obs.events.filter(kind="error"))
        assert len(errors) == 1
        assert errors[0].data["reason"] == "decode"
        assert errors[0].node == "r"

    def test_no_stale_soa_state_after_decode_fault(self):
        net, a, r, b, layer = router_between()
        layer.install(CHAR_VIEW)
        packets = self.make_stream(a, b)
        net.sim.schedule(0.0, lambda: [
            (layer.wants(p, None), layer.process(p, None))
            for p in packets])
        self.bad.payload = b""
        net.sim.run()
        before = dataclasses.asdict(layer.stats)
        # A fresh, intact batch right after the fault must run clean
        # through the batch tier (not a degraded per-packet replay).
        clean = [tcp_packet(a.address, b.address, 1, 80, b"Q")
                 for _ in range(BATCH)]
        burst(net, layer, clean)
        after = layer.stats
        assert after.runtime_errors == before["runtime_errors"]
        assert after.fastpath_batches == before["fastpath_batches"] + 1
        assert after.batched_packets == before["batched_packets"] + BATCH


class TestRuntimeFaultMidBatch:
    def run_stream(self, batch_size):
        old = node_mod.ROUTER_BATCH_SIZE
        node_mod.ROUTER_BATCH_SIZE = batch_size
        try:
            net, a, r, b, layer = router_between()
            layer.install(FAULT_ON_EMPTY, verify=False)
            packets = [tcp_packet(a.address, b.address, 1, 80,
                                  b"" if i == 30 else b"pay")
                       for i in range(BATCH)]
            got = []
            b.delivery_taps.append(lambda p: got.append(p))
            burst(net, layer, packets)
            return layer, got
        finally:
            node_mod.ROUTER_BATCH_SIZE = old

    def test_faulting_row_matches_serial_exactly(self):
        batched, got_b = self.run_stream(BATCH)
        serial, got_s = self.run_stream(0)
        assert serial.stats.runtime_errors == 1
        assert len(got_s) == BATCH  # faulted packet standard-forwarded
        for field in ("packets_processed", "runtime_errors",
                      "packets_delivered", "packets_emitted"):
            assert getattr(batched.stats, field) \
                == getattr(serial.stats, field), field
        assert batched.protocol_state == serial.protocol_state
        assert len(got_b) == len(got_s)


class TestBreakerTripMidBatch:
    def run_stream(self, batch_size, bad_rows):
        old = node_mod.ROUTER_BATCH_SIZE
        node_mod.ROUTER_BATCH_SIZE = batch_size
        try:
            net, a, r, b, layer = router_between()
            deployment = Deployment()
            deployment.install(FAULT_ON_EMPTY, [r], verify=False)
            layer = r.planp
            policy = LifecyclePolicy(error_budget=2, budget_window=5.0)
            manager = LifecycleManager(net, deployment=deployment,
                                       policy=policy)
            manager.manage(r)
            packets = [tcp_packet(a.address, b.address, 1, 80,
                                  b"" if i in bad_rows else b"pay")
                       for i in range(BATCH)]
            got = []
            b.delivery_taps.append(lambda p: got.append(p))
            # The production arrival path (receive → wants → process)
            # in ONE event: it is receive() that counts asp_handled,
            # which the batch path must unwind on a mid-batch trip.
            net.sim.schedule(0.0, lambda: [r.receive(p, None)
                                           for p in packets])
            net.sim.run()
            return r, layer, manager, got
        finally:
            node_mod.ROUTER_BATCH_SIZE = old

    def test_mid_batch_trip_matches_serial_accounting(self):
        bad = {10, 11, 12}  # third error bursts the budget of 2
        rb, lb, mb, got_b = self.run_stream(BATCH, bad)
        rs, ls, ms, got_s = self.run_stream(0, bad)
        assert mb.of(rb).breaker.trips == 1
        assert ms.of(rs).breaker.trips == 1
        assert len(got_b) == len(got_s) == BATCH  # nothing lost
        for field in ("packets_processed", "runtime_errors"):
            assert getattr(lb.stats, field) \
                == getattr(ls.stats, field), field
        # Packets behind the trip revert to plain IP in both modes —
        # the batch path must unwind its enqueue-time ASP accounting.
        assert rb.stats.asp_handled == rs.stats.asp_handled
        assert rb.stats.forwarded == rs.stats.forwarded


class TestBatchTelemetry:
    """Satellite: batch amortization is visible per node — counters on
    ``PlanPLayer.stats`` and a batch-size histogram in the metrics
    registry."""

    def test_counters_and_histogram_exposed(self):
        net, a, r, b, layer = router_between()
        layer.install(FORWARD)
        burst(net, layer,
              [tcp_packet(a.address, b.address, 1, 80, b"x")
               for _ in range(BATCH + 10)])
        assert layer.stats.fastpath_batches == 2  # 64 + 10
        assert layer.stats.batched_packets == BATCH + 10
        snap = net.metrics_snapshot(include_global=False)
        assert snap["node.r.planp.fastpath_batches"] == 2
        assert snap["node.r.planp.batched_packets"] == BATCH + 10
        assert snap["node.r.planp.batch_size.count"] == 2
        assert snap["node.r.planp.batch_size.max"] == BATCH

    def test_singletons_bypass_batch_machinery(self):
        net, a, r, b, layer = router_between()
        layer.install(FORWARD)
        a.ip_send(tcp_packet(a.address, b.address, 1, 80, b"x"))
        net.run()
        assert layer.stats.packets_processed == 1
        assert layer.stats.fastpath_batches == 0
        assert layer.stats.batched_packets == 0

    def test_batching_off_leaves_counters_at_zero(self):
        old = node_mod.ROUTER_BATCH_SIZE
        node_mod.ROUTER_BATCH_SIZE = 0
        try:
            net, a, r, b, layer = router_between()
            layer.install(FORWARD)
            burst(net, layer,
                  [tcp_packet(a.address, b.address, 1, 80, b"x")
                   for _ in range(8)])
            assert layer.stats.packets_processed == 8
            assert layer.stats.fastpath_batches == 0
        finally:
            node_mod.ROUTER_BATCH_SIZE = old
