"""Observability wired through the network stack, end to end."""

from repro.net import Network
from repro.net.packet import tcp_packet, udp_packet
from repro.net.tcp import TcpError
from repro.runtime import PlanPLayer

FORWARD_ASP = """\
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
"""


def line_net(**link_kwargs):
    net = Network(seed=9)
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    net.link(a, r)
    net.link(r, b, **link_kwargs)
    net.finalize()
    return net, a, r, b


class TestSnapshotShape:
    def test_snapshot_has_node_link_and_sim_keys(self):
        net, a, r, b = line_net()
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        net.run()
        snap = net.metrics_snapshot(include_global=False)
        assert snap["node.b.delivered"] == 1
        assert snap["node.r.forwarded"] == 1
        assert snap["link.a--r.packets_sent"] >= 1
        assert snap["sim.events_processed"] > 0
        assert snap["sim.now"] == net.sim.now
        assert snap["events.logged"] == 0  # nothing eventful happened

    def test_global_scope_merged_under_prefix(self):
        net, _a, _r, _b = line_net()
        snap = net.metrics_snapshot()
        assert any(key.startswith("global.program_cache.")
                   for key in snap)
        assert not any(key.startswith("global.global.") for key in snap)

    def test_include_global_false_excludes_prefix(self):
        net, _a, _r, _b = line_net()
        snap = net.metrics_snapshot(include_global=False)
        assert not any(key.startswith("global.") for key in snap)

    def test_shared_obs_keeps_first_networks_clock_and_sim(self):
        """A second network on one scope must not hijack the event
        clock or the 'sim' stats of the first; it publishes its own
        scheduler under 'sim2'."""
        from repro.obs import Observability

        obs = Observability()
        first = Network(seed=1, obs=obs)
        a = first.add_host("a")
        b = first.add_host("b")
        first.link(a, b)
        first.finalize()
        a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x"))
        first.run()
        second = Network(seed=2, obs=obs)

        assert obs.events.clock() == first.sim.now  # not second's 0.0
        snap = obs.snapshot()
        assert snap["sim.now"] == first.sim.now
        assert snap["sim2.now"] == second.sim.now


class TestDropAccounting:
    def test_queue_drops_count_and_log(self):
        net, a, r, b = line_net(bandwidth=64_000, queue_limit=2)
        for _ in range(10):
            a.ip_send(udp_packet(a.address, b.address, 1, 2, b"x" * 972))
        net.run()
        snap = net.metrics_snapshot(include_global=False)
        assert snap["drops_total"] > 0
        drops = net.obs.events.filter(kind="drop")
        assert snap["drops_total"] == len(drops)
        (reasons, sites) = ({e.data["reason"] for e in drops},
                            {e.data["site"] for e in drops})
        assert reasons == {"queue"}
        assert sites == {"r--b"}  # the bottleneck link, by name
        # Event timestamps are simulated time, inside the run's span.
        assert all(0.0 <= e.t <= net.sim.now for e in drops)

    def test_node_drop_reason_no_route(self):
        from repro.net.addresses import HostAddr

        net, a, _r, _b = line_net()
        stranger = udp_packet(a.address, HostAddr.parse("99.9.9.9"),
                              1, 2, b"x")
        a.ip_send(stranger)
        net.run()
        drops = net.obs.events.filter(kind="drop")
        assert len(drops) == 1
        assert drops[0].data["reason"] == "no-route"
        assert drops[0].data["site"] == "node"


class TestFaultEvents:
    def test_link_flap_logged_and_counted(self):
        net, a, r, b = line_net()
        link = net.media[0]
        net.faults.link_down(link)
        net.faults.link_up(link)
        snap = net.metrics_snapshot(include_global=False)
        assert snap["faults_total"] == 2
        details = [e.data["detail"]
                   for e in net.obs.events.filter(kind="fault")]
        assert any("down" in d for d in details)
        assert any("up" in d or "restored" in d for d in details)


class TestDeployEvents:
    def test_push_milestones_logged(self):
        from repro.asps import audio_router_asp
        from repro.runtime.netdeploy import (DeploymentManager,
                                             DeploymentService)

        net = Network(seed=7)
        mgr = net.add_host("mgr")
        router = net.add_router("r1")
        net.link(mgr, router)
        net.finalize()
        DeploymentService(net, router)
        manager = DeploymentManager(net, mgr)
        manager.push(audio_router_asp(), [router.address])
        net.run(until=5.0)

        actions = [e.data["action"]
                   for e in net.obs.events.filter(kind="deploy")]
        assert "push" in actions
        assert "install" in actions
        assert "push-ok" in actions
        snap = net.metrics_snapshot(include_global=False)
        assert snap["deploy.manager.pushes"] == 1
        assert snap["deploy.service.r1.installed"] == 1


class TestCleanPathCost:
    """What the shipping instrumentation costs a packet nothing happens
    to, as counts: no event logged, no tap to call, no per-packet
    histogram — on the ASP path and the standard forwarding path alike."""

    N = 8

    def test_clean_packets_log_nothing_and_find_no_taps(self):
        net, a, r, b = line_net()
        layer = PlanPLayer(r)
        layer.install(FORWARD_ASP)
        assert [e.kind for e in net.obs.events.filter()] == ["deploy"]

        for i in range(self.N):
            # an overload matches: runs through the ASP on r...
            a.ip_send(udp_packet(a.address, b.address, 1, 2, bytes([i])))
            # ...none does: standard forwarding
            a.ip_send(tcp_packet(a.address, b.address, 1, 80, b"x"))
        net.run()
        assert r.stats.asp_handled == self.N
        assert layer.stats.packets_processed == self.N
        assert layer.stats.runtime_errors == 0
        assert r.stats.forwarded == self.N
        assert b.stats.delivered == 2 * self.N

        assert [e.kind for e in net.obs.events.filter()] == ["deploy"]
        # no tap to call per packet: a Network wires only its drop
        # counters, which a clean packet never meets
        queues = [iface.medium.tx_queue(iface)
                  for node in net.nodes for iface in node.interfaces]
        assert all(not node.receive_taps for node in net.nodes)
        assert all(not tx.send_taps for tx in queues)
        assert all(len(x.drop_taps) == 1 for x in [*net.nodes, *queues])
        snap = net.metrics_snapshot(include_global=False)
        assert snap["drops_total"] == 0
        assert not any(key.startswith("asp.") for key in snap)


class TestErrorCounting:
    def test_http_server_counts_peer_failures(self):
        from repro.apps.http.server import HttpServer

        net, a, _r, b = line_net()
        server = HttpServer(net, b, {"/x": 100})
        server._count_error("/x", TcpError("connection reset"))
        snap = net.metrics_snapshot(include_global=False)
        assert snap["http.errors_total"] == 1
        assert server.errors == 1
        (event,) = net.obs.events.filter(kind="error")
        assert event.data["where"] == "http-server"
        assert event.data["path"] == "/x"

    def test_image_client_counts_corrupt_blob(self):
        from repro.apps.images.service import ImageClient

        net, a, _r, b = line_net()
        client = ImageClient(net, a, b.address, originals={"pic": b"ok"})
        client._pending.append(("pic", 0.0))
        # A blob that is not valid SIMG: decode fails, the client counts
        # it, and the experiment keeps running.
        client._on_reply(b"\x00garbage", b.address, 7)
        assert client.failures == 1
        snap = net.metrics_snapshot(include_global=False)
        assert snap["images.errors_total"] == 1
        (event,) = net.obs.events.filter(kind="error")
        assert event.data["where"] == "image-client"
        assert event.data["image"] == "pic"

    def test_experiment_results_carry_metrics(self):
        from repro.apps.images import run_image_experiment

        result = run_image_experiment(distillation=False)
        assert result.metrics  # snapshot taken at end of run
        assert result.metrics["sim.now"] > 0.0
        assert any(key.startswith("node.") for key in result.metrics)


class TestLifecycleSummary:
    """The ``obsdump --view lifecycle`` fold over an event list."""

    EVENTS = [
        {"kind": "deploy", "action": "install", "node": "r0"},
        {"kind": "deploy", "action": "install", "node": "r1"},
        {"kind": "rollout", "action": "stage"},
        {"kind": "rollout", "action": "canary"},
        {"kind": "quarantine", "action": "trip", "node": "r0"},
        {"kind": "rollout", "action": "abort"},
        {"kind": "rollback", "action": "start"},
        {"kind": "rollback", "action": "node", "node": "r0",
         "to_generation": 1},
        {"kind": "rollback", "action": "done"},
        {"kind": "quarantine", "action": "half-open", "node": "r1"},
        {"kind": "quarantine", "action": "close", "node": "r1"},
        {"kind": "deploy", "action": "restore", "node": "r0"},
        {"kind": "rollout", "action": "stage"},
        {"kind": "rollout", "action": "promote"},
        {"kind": "rollout", "action": "stage"},
        {"kind": "rollout", "action": "veto", "rollout": 3,
         "sha": "abc123", "against": "def456", "nodes": 2,
         "verdict": "incompatible: [field-layout-changed] ..."},
        {"kind": "rollback", "action": "skip", "sha": "abc123",
         "node": "", "nodes": 0,
         "reason": "no managed node runs this generation"},
    ]

    def test_fold(self):
        from repro.runtime.lifecycle import lifecycle_summary

        summary = lifecycle_summary(self.EVENTS)
        assert summary["totals"] == {"rollouts": 3, "promoted": 1,
                                     "aborted": 1, "vetoed": 1,
                                     "fleet_rollbacks": 1,
                                     "rollback_skips": 1}
        assert summary["vetoes"] == [{
            "rollout": 3, "sha": "abc123", "against": "def456",
            "nodes": 2,
            "verdict": "incompatible: [field-layout-changed] ..."}]
        assert summary["nodes"]["r0"] == {
            "installs": 2, "trips": 1, "half_opens": 0, "closes": 0,
            "rollbacks": 1, "generation": 1}
        assert summary["nodes"]["r1"]["half_opens"] == 1
        assert summary["nodes"]["r1"]["closes"] == 1

    def test_fold_matches_live_drill(self):
        from repro.experiments.chaos import run_chaos_experiment
        from repro.obs import Observability
        from repro.runtime.lifecycle import lifecycle_summary

        obs = Observability()
        run_chaos_experiment(profile="drill", n_routers=4,
                             duration=8.0, seed=5, obs=obs)
        events = [r.to_dict() for r in obs.events.filter()]
        summary = lifecycle_summary(events)
        assert summary["totals"]["fleet_rollbacks"] >= 1
        assert len(summary["nodes"]) >= 4
        assert all(entry["generation"] == 1
                   for name, entry in summary["nodes"].items()
                   if entry["rollbacks"])
