"""PLAN-P layer tests: installation, dispatch, emission, robustness."""

import random

import pytest

from repro.jit import BACKENDS
from repro.lang import PlanPRuntimeError, VerificationError
from repro.net import Network
from repro.net.addresses import HostAddr
from repro.net.packet import tcp_packet, udp_packet
from repro.runtime import Deployment, PlanPLayer

FORWARD = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
           "(OnRemote(network, p); (ps + 1, ss))")

COUNTING_UDP = (
    "channel network(ps : int, ss : unit, p : ip*udp*blob) is "
    "(OnRemote(network, p); (ps + 1, ss))")


#: a table kept in a val: its size counts the packets run since install
TABLE_COUNTER = """
val seen : (int) hash_table = mkTable(8)
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (tableSet(seen, ps, 1); OnRemote(network, p); (tableSize(seen), ss))
"""

#: a val calling a fun that reads an earlier val
VAL_CALLS_FUN = """
val a : int = random(1000000)
fun f(x : int) : int = x + a
val b : int = f(1)
channel network(ps : int, ss : int, p : ip*udp*blob) initstate a is
  (OnRemote(network, p); (b - a, ss))
"""

#: type checks, but its second val raises when evaluated
RAISING_VAL = """
val z : int = 0
val k : int = 10 / z
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + k, ss))
"""


def router_between():
    """a -- r -- b with a PLAN-P layer on r."""
    net = Network(seed=5)
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    net.link(a, r)
    net.link(r, b)
    net.finalize()
    layer = PlanPLayer(r)
    return net, a, r, b, layer


class TestInstall:
    def test_install_compiles_and_initialises(self):
        net, a, r, b, layer = router_between()
        loaded = layer.install(FORWARD, backend="closure")
        assert layer.engine is loaded.engine
        assert layer.protocol_state == 0

    def test_install_rejects_unsafe_program(self):
        net, a, r, b, layer = router_between()
        bad = ("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
               "(OnRemote(network, p); OnRemote(network, p); (ps, ss))")
        with pytest.raises(VerificationError):
            layer.install(bad)
        assert layer.loaded is None

    def test_verify_false_bypasses(self):
        net, a, r, b, layer = router_between()
        bad = ("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
               "(OnRemote(network, p); OnRemote(network, p); (ps, ss))")
        layer.install(bad, verify=False)
        assert layer.loaded is not None

    def test_uninstall(self):
        net, a, r, b, layer = router_between()
        layer.install(FORWARD)
        layer.uninstall()
        packet = tcp_packet(a.address, b.address, 1, 80, b"x")
        assert layer.match(packet) is None

    @pytest.mark.parametrize("backend", ["interpreter", "closure",
                                         "source"])
    def test_all_backends_forward_traffic(self, backend):
        net, a, r, b, layer = router_between()
        layer.install(FORWARD, backend=backend)
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        a.ip_send(tcp_packet(a.address, b.address, 1, 80, b"x"))
        net.run()
        assert len(got) == 1
        assert layer.stats.packets_processed == 1


class TestDispatch:
    def test_unmatched_packets_use_standard_path(self):
        net, a, r, b, layer = router_between()
        layer.install(FORWARD)  # matches TCP only
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"u"))
        net.run()
        assert len(got) == 1
        assert layer.stats.packets_processed == 0
        assert r.stats.forwarded == 1

    def test_overload_dispatch_by_payload_shape(self):
        src = """
channel network(ps : int, ss : unit, p : ip*udp*host*int) is
  (deliver(p); (ps + 100, ss))
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
"""
        net, a, r, b, layer = router_between()
        layer.install(src)
        # 8-byte payload -> host*int overload; other sizes -> blob.
        a.ip_send(udp_packet(a.address, b.address, 1, 2, bytes(8)))
        a.ip_send(udp_packet(a.address, b.address, 1, 2, bytes(3)))
        net.run()
        assert layer.protocol_state == 101

    def test_channel_tagged_packet_dispatch(self):
        src = """
channel mine(ps : int, ss : unit, p : ip*udp*blob) is
  (deliver(p); (ps + 1, ss))
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(mine, p); (ps, ss))
"""
        net, a, r, b, layer = router_between()
        layer.install(src)
        layer_b = PlanPLayer(b)
        layer_b.install(src)
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"v"))
        net.run()
        # r tags the packet for 'mine'; b's layer dispatches to it.
        assert layer_b.protocol_state == 1
        assert b.stats.delivered == 1

    def test_promiscuous_host_sees_others_traffic(self):
        net = Network(seed=5)
        a, b, w = (net.add_host(n) for n in "abw")
        seg = net.segment("lan")
        for h in (a, b, w):
            net.attach(h, seg)
        net.finalize()
        watcher = PlanPLayer(w, promiscuous=True)
        watcher.install(COUNTING_UDP)
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        net.run()
        assert watcher.protocol_state == 1
        # The original still reaches b exactly once.
        assert b.stats.delivered == 1

    def test_non_promiscuous_host_does_not(self):
        net = Network(seed=5)
        a, b, w = (net.add_host(n) for n in "abw")
        seg = net.segment("lan")
        for h in (a, b, w):
            net.attach(h, seg)
        net.finalize()
        watcher = PlanPLayer(w)
        watcher.install(COUNTING_UDP)
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        net.run()
        assert watcher.protocol_state == 0


class TestRobustness:
    def test_runtime_error_falls_back_to_standard(self):
        # Unverified program that raises on every packet.
        src = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               "(OnRemote(network, p); (blobByte(#3 p, 999), ss))")
        net, a, r, b, layer = router_between()
        layer.install(src, verify=False)
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        a.ip_send(tcp_packet(a.address, b.address, 1, 80, b"x"))
        net.run()
        assert layer.stats.runtime_errors == 1
        assert len(got) == 1  # packet survived via standard forwarding

    def test_cpu_model_delays_processing(self):
        net, a, r, b, layer = router_between()
        layer.install(FORWARD)
        layer.cpu.per_item_s = 0.5
        arrivals = []
        b.delivery_taps.append(lambda p: arrivals.append(net.sim.now))
        for _ in range(3):
            a.ip_send(tcp_packet(a.address, b.address, 1, 80, b"x"))
        net.run()
        assert len(arrivals) == 3
        assert arrivals[-1] > 1.4  # three packets serialized at 0.5 s

    def test_console_output_captured(self):
        src = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
               '(print("seen"); OnRemote(network, p); (ps, ss))')
        net, a, r, b, layer = router_between()
        layer.install(src)
        a.ip_send(tcp_packet(a.address, b.address, 1, 80, b"x"))
        net.run()
        assert layer.console == ["seen"]


class TestEmission:
    def test_neighbor_without_an_interface_is_a_reported_drop(self):
        """``OnNeighbor`` toward an address no interface, route or group
        tree leads to: the packet is lost, and the drop taps hear of it
        as ``no-route`` instead of nothing."""
        net, a, r, b, layer = router_between()
        layer.install("channel network(ps : int, ss : unit, "
                      "p : ip*udp*blob) is "
                      "(OnNeighbor(network, p, 203.16.164.215); (ps, ss))",
                      verify=False)
        assert r.iface_toward(HostAddr.parse("203.16.164.215")) is None
        drops = []
        r.drop_taps.append(lambda packet, reason: drops.append(reason))
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        net.run()
        assert drops == ["no-route"]
        assert layer.stats.packets_emitted == 1
        assert b.stats.delivered == 0


class TestQueueLen:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reads_the_queue_toward_a_host_on_a_real_node(self, backend):
        """``queueLen`` through the layer, the node and the interface:
        a -- r is fast, r -- b slow, so each packet the ASP on r forwards
        waits behind the ones before it; nothing waits toward a."""
        net = Network(seed=5)
        a = net.add_host("a")
        r = net.add_router("r")
        b = net.add_host("b")
        net.link(a, r)
        net.link(r, b, bandwidth=8e3)
        net.finalize()
        layer = PlanPLayer(r)
        layer.install(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is "
            "(print(intToString(queueLen(ipDst(#1 p))) ^ \"/\" ^ "
            "intToString(queueLen(ipSrc(#1 p)))); "
            "OnRemote(network, p); (ps, ss))", backend=backend)
        for _ in range(4):
            a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x" * 100))
        net.run()
        assert layer.console == ["0/0", "1/0", "2/0", "3/0"]
        assert b.stats.delivered == 4


class TestDeployment:
    def test_install_on_many_nodes(self):
        net, a, r, b, _layer = router_between()
        deployment = Deployment()
        record = deployment.install(FORWARD, [r, b], source_name="fw")
        assert record.nodes == ["r", "b"]
        assert record.report is not None and record.report.passed

    def test_rejected_program_touches_no_node(self):
        net, a, r, b, _layer = router_between()
        deployment = Deployment()
        bad = ("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
               "(OnRemote(network, p); OnRemote(network, p); (ps, ss))")
        with pytest.raises(VerificationError):
            deployment.install(bad, [r, b])
        assert r.planp.loaded is None

    def test_uninstall_all(self):
        net, a, r, b, _layer = router_between()
        deployment = Deployment()
        deployment.install(FORWARD, [r])
        deployment.uninstall([r])
        assert r.planp.loaded is None


class TestDecodeContainment:
    """Satellite regression: a malformed packet must never take the
    node down — decoding runs inside the containment try, the failure
    is counted as a runtime error with a ``decode`` reason, and the
    packet falls back to standard IP processing."""

    CHAR_VIEW = ("channel network(ps : int, ss : unit, "
                 "p : ip*tcp*char*blob) is "
                 "(OnRemote(network, p); (ps + 1, ss))")

    def test_truncated_payload_is_contained(self):
        net, a, r, b, layer = router_between()
        layer.install(self.CHAR_VIEW)
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        packet = tcp_packet(a.address, b.address, 1, 80, b"Q")
        # The packet is classified against its intact payload, then
        # corrupted in flight: by execution time the char view's byte
        # is gone.  Before the fix this IndexError escaped the layer
        # and crashed the node.
        hit = layer.match(packet)
        assert hit is not None
        packet.payload = b""
        layer.process(packet, None, hit)
        net.sim.run()
        assert layer.stats.runtime_errors == 1
        assert layer.stats.packets_processed == 1
        assert len(got) == 1  # survived via standard forwarding
        assert r.up

    def test_decode_failure_reason_in_error_event(self):
        net, a, r, b, layer = router_between()
        layer.install(self.CHAR_VIEW)
        packet = tcp_packet(a.address, b.address, 1, 80, b"Q")
        hit = layer.match(packet)
        assert hit is not None
        packet.payload = b""
        layer.process(packet, None, hit)
        net.sim.run()
        errors = [e for e in net.obs.events.events if e.kind == "error"]
        assert len(errors) == 1
        assert errors[0].data["reason"] == "decode"
        assert errors[0].node == "r"

    def test_codec_error_from_engine_is_contained(self):
        # A CodecError raised during channel execution (an unverified
        # program emitting an unencodable value) is not a PlanPError;
        # before the fix it escaped the runtime-error containment.
        from repro.runtime import codec

        class Exploding:
            def __init__(self, inner):
                self.inner = inner

            def initial_channel_state(self, decl, ctx):
                return self.inner.initial_channel_state(decl, ctx)

            def run_channel(self, *args):
                raise codec.CodecError("cannot encode table into payload")

        net, a, r, b, layer = router_between()
        layer.install(FORWARD)
        layer.engine = Exploding(layer.engine)
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        a.ip_send(tcp_packet(a.address, b.address, 1, 80, b"x"))
        net.run()
        assert layer.stats.runtime_errors == 1
        assert len(got) == 1
        errors = [e for e in net.obs.events.events if e.kind == "error"]
        assert errors and errors[0].data["reason"] == "runtime"

    def test_stale_deferred_classification_is_not_an_error(self):
        # With a CPU model, process() defers execution; if the program
        # is uninstalled in between, the stale packet gets standard
        # treatment and is NOT counted as a runtime error.
        net, a, r, b, layer = router_between()
        layer.install(FORWARD)
        layer.cpu.per_item_s = 0.5
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        a.ip_send(tcp_packet(a.address, b.address, 1, 80, b"x"))
        net.run(until=0.1)  # classified + queued behind the CPU
        layer.uninstall()
        net.run()
        assert layer.stats.runtime_errors == 0
        assert len(got) == 1


class TestCrashedNodeDoesNotForward:
    """A crash takes the work queued on the node's CPU model — and the
    burst waiting for the end-of-event drain — down with it: a
    powered-off router forwards nothing, and nothing it had queued runs
    after a restart."""

    def queued_behind_cpu(self):
        net, a, r, b, layer = router_between()
        loaded = layer.install(COUNTING_UDP)
        layer.cpu.per_item_s = 0.05
        got, drops = [], []
        b.delivery_taps.append(lambda p: got.append(net.sim.now))
        r.drop_taps.append(lambda p, reason: drops.append(reason))
        for _ in range(3):
            a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        return net, a, r, b, layer, loaded, got, drops

    def test_cpu_queue_dies_with_the_node(self):
        net, a, r, b, layer, _loaded, got, drops = self.queued_behind_cpu()
        net.sim.at(0.06, r.crash)  # one done, two still queued
        net.run()
        assert len(got) == 1 and got[0] < 0.06
        assert r.stats.forwarded == 0
        assert r.stats.dropped_down == 2
        assert drops == ["node-down", "node-down"]
        assert layer.stats.packets_processed == 1

    def test_nothing_queued_before_a_crash_runs_after_the_restart(self):
        from repro.net.faults import FaultController

        net, a, r, b, layer, loaded, got, drops = self.queued_behind_cpu()
        faults = FaultController(net)
        # The same LoadedProgram comes back, so the queued hits would
        # classify as current if the queue had survived.
        r.restart_hooks.append(lambda: layer.install_loaded(loaded))
        faults.script([(0.06, faults.crash, "r"),
                       (0.08, faults.restart, "r")])
        net.run()  # the queued slots (0.10, 0.15) fall after the restart
        assert len(got) == 1
        assert drops == ["node-down", "node-down"]
        assert r.stats.dropped_down == 2 and r.stats.forwarded == 0
        assert layer.stats.packets_processed == 1
        assert layer.protocol_state == 0  # restarted from a clean slate
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"y"))
        net.run()
        assert len(got) == 2 and layer.protocol_state == 1

    def test_burst_awaiting_the_drain_dies_with_the_node(self):
        net, a, r, b, layer = router_between()
        # the closure engine brings a batch fold, so the burst waits for
        # the drain (any other engine runs each packet inline)
        layer.install(COUNTING_UDP, backend="closure")
        got, drops = [], []
        b.delivery_taps.append(got.append)
        r.drop_taps.append(lambda p, reason: drops.append(reason))

        def burst_then_crash():
            for _ in range(3):
                r.receive(udp_packet(a.address, b.address, 1, 2, b"x"),
                          None)
            assert len(layer._pending[0]) == 3
            r.crash()
        net.sim.schedule(0.0, burst_then_crash)
        net.run()
        assert got == [] and drops == ["node-down"] * 3
        assert r.stats.dropped_down == 3
        assert layer.stats.packets_processed == 0


class TestProgramGlobals:
    """Every engine evaluates a program's top-level vals once, when it
    is built for its node, into the environment its funs read."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rollback_restores_the_globals_it_left(self, backend):
        net, a, r, b, layer = router_between()
        layer.install(TABLE_COUNTER, backend=backend)
        for _ in range(3):
            a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        net.run()
        assert layer.protocol_state == 3
        snap = layer.snapshot_program()
        layer.install(COUNTING_UDP, backend=backend)
        layer.restore_program(snap)
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        net.run()
        # the restored engine's table is the one the three filled
        assert layer.protocol_state == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_val_calling_a_fun_reads_the_one_evaluation(self, backend):
        net, a, r, b, layer = router_between()
        reference = random.Random()
        reference.setstate(r.entropy.getstate())
        layer.install(VAL_CALLS_FUN, backend=backend)
        # one draw, at install, from the node's own stream
        drawn = reference.randrange(1000000)
        assert list(layer.channel_states.values()) == [drawn]
        assert r.entropy.getstate() == reference.getstate()
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        net.run()
        assert layer.protocol_state == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_raising_val_refuses_the_program(self, backend):
        net, a, r, b, layer = router_between()
        with pytest.raises(PlanPRuntimeError, match="division by zero"):
            layer.install(RAISING_VAL, backend=backend, verify=False)
        assert layer.loaded is None and layer.manifest is None
        got = []
        b.delivery_taps.append(got.append)
        for _ in range(2):
            a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        net.run()  # standard forwarding: nothing leaks out of receive
        assert len(got) == 2 and layer.stats.runtime_errors == 0

    def test_the_verifier_refuses_a_raising_val(self):
        net, a, r, b, layer = router_between()
        with pytest.raises(VerificationError, match="val 'k'") as err:
            layer.install(RAISING_VAL)
        assert err.value.analysis == "delivery"
        assert layer.loaded is None
