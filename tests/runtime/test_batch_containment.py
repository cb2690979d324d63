"""Tier-3 batch path: error containment and telemetry.

A batch must never weaken the per-packet containment contract: one
malformed or faulting packet inside a 64-row batch is contained exactly
as it would be serially — the other 63 run through the ASP, the bad one
falls back to standard IP, the circuit breaker sees the same error
stream, and no struct-of-arrays state leaks into the next batch.

Every program here runs on the closure engine, the one that brings a
batch fold: the layer defers packets into runs for no other engine.
"""

import dataclasses

import repro.net.node as node_mod
from repro.net import Network
from repro.net.faults import FaultController
from repro.net.packet import tcp_packet
from repro.runtime import Deployment, PlanPLayer
from repro.runtime.lifecycle import LifecycleManager, LifecyclePolicy

BATCH = 64

#: the engine with a batch fold
FOLDING = "closure"

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
            hit = layer.match(p)
            if hit is not None:
                layer.process(p, None, hit)
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
        layer.install(CHAR_VIEW, backend=FOLDING)
        packets = self.make_stream(a, b)
        got = []
        b.delivery_taps.append(lambda p: got.append(p))

        def fire():
            for p in packets:
                hit = layer.match(p)
                assert hit is not None
                layer.process(p, None, hit)
            # Classified with an intact payload, corrupted before the
            # drain runs: batch decode meets a byte that is not there.
            self.bad.payload = b""
        net.sim.schedule(0.0, fire)
        net.sim.run()
        return net, r, layer, got

    def test_sixty_three_rows_survive_one_malformed(self):
        net, r, layer, got = self.run_corrupted()
        assert layer.stats.fastpath_batches == 1
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
        layer.install(CHAR_VIEW, backend=FOLDING)
        packets = self.make_stream(a, b)
        def fire():
            for p in packets:
                hit = layer.match(p)
                if hit is not None:
                    layer.process(p, None, hit)
                else:
                    r.standard_processing(p, None)
        net.sim.schedule(0.0, fire)
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
            layer.install(FAULT_ON_EMPTY, backend=FOLDING, verify=False)
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
        assert batched.stats.fastpath_batches == 1
        assert serial.stats.fastpath_batches == 0
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
            deployment.install(FAULT_ON_EMPTY, [r], backend=FOLDING,
                               verify=False)
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
        assert lb.stats.fastpath_batches == 1
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
        layer.install(FORWARD, backend=FOLDING)
        burst(net, layer,
              [tcp_packet(a.address, b.address, 1, 80, b"x")
               for _ in range(BATCH + 10)])
        assert layer.stats.fastpath_batches == 2  # 64 + 10
        assert layer.stats.batched_packets == BATCH + 10
        snap = net.obs.snapshot()
        assert snap["node.r.planp.fastpath_batches"] == 2
        assert snap["node.r.planp.batched_packets"] == BATCH + 10
        assert snap["node.r.planp.batch_size.count"] == 2
        assert snap["node.r.planp.batch_size.max"] == BATCH

    def test_singletons_bypass_batch_machinery(self):
        net, a, r, b, layer = router_between()
        layer.install(FORWARD, backend=FOLDING)
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
            layer.install(FORWARD, backend=FOLDING)
            burst(net, layer,
                  [tcp_packet(a.address, b.address, 1, 80, b"x")
                   for _ in range(8)])
            assert layer.stats.packets_processed == 8
            assert layer.stats.fastpath_batches == 0
        finally:
            node_mod.ROUTER_BATCH_SIZE = old


class TestEngineChangesBeforeTheDrain:
    """A burst is queued for the closure fold, and then, inside the same
    event, the engine loses its fold: a fault drill poisons it, or the
    program is reinstalled on ``source``.  The drain finds a core with
    no fold and runs the queued rows packet by packet, so every row has
    its serial outcome: each error counted, fed to the breaker and
    fallen back to standard IP exactly once, and no batch counted."""

    N = 12

    def run_stream(self, swap, *, before):
        """Burst ``N`` packets (every fourth empty) at the router in one
        event, calling ``swap(net, r)`` before or after the burst."""
        net, a, r, b, _ = router_between()
        deployment = Deployment()
        deployment.install(FAULT_ON_EMPTY, [r], backend=FOLDING,
                           verify=False)
        manager = LifecycleManager(
            net, deployment=deployment,
            policy=LifecyclePolicy(error_budget=BATCH, budget_window=5.0))
        handle, = manager.manage(r)
        fed = []
        on_error = handle.on_packet_error
        handle.on_packet_error = lambda reason: (fed.append(reason),
                                                 on_error(reason))
        packets = [tcp_packet(a.address, b.address, 1, 80,
                              b"" if i % 4 == 3 else b"pay")
                   for i in range(self.N)]
        got = []
        b.delivery_taps.append(got.append)

        def fire():
            if before:
                swap(net, r)
            for p in packets:
                r.receive(p, None)
            if not before:
                swap(net, r)
        net.sim.schedule(0.0, fire)
        net.run()
        return r.planp, fed, got, packets

    def poison(self, net, r):
        FaultController(net).poison_asp(r, every=5)

    def reinstall_on_source(self, net, r):
        r.planp.install(FAULT_ON_EMPTY, backend="source", verify=False)

    def assert_serial(self, swap):
        layer, fed, got, packets = self.run_stream(swap, before=False)
        serial, fed_s, got_s, _ = self.run_stream(swap, before=True)
        assert layer.core.fold is None
        assert layer.stats.fastpath_batches == 0
        assert layer.stats.batched_packets == 0
        assert layer.stats == serial.stats
        assert layer.protocol_state == serial.protocol_state
        assert fed == fed_s == ["runtime"] * layer.stats.runtime_errors
        # every packet left the router once: by the ASP or by the
        # standard-IP fallback of its error
        assert len(got) == len(got_s) == self.N
        return layer

    def test_poisoned_between_enqueue_and_drain(self):
        layer = self.assert_serial(self.poison)
        # three empty payloads, and the fifth and tenth invocations
        assert layer.stats.runtime_errors == 5

    def test_reinstalled_on_source_between_enqueue_and_drain(self):
        layer = self.assert_serial(self.reinstall_on_source)
        assert layer.stats.runtime_errors == 3
        assert layer.stats.packets_processed == self.N
