"""Failure injection: lossy media, dying servers, malformed traffic."""

from repro.apps.http import HttpClientWorker, HttpServer, generate_trace
from repro.apps.mpeg import run_mpeg_experiment
from repro.asps import audio_client_asp, audio_router_asp
from repro.net import Network
from repro.net.packet import udp_packet
from repro.net.routing import compute_routes
from repro.runtime import Deployment, PlanPLayer


class TestLossyMedia:
    def test_audio_asps_survive_packet_loss(self):
        """Frames lost on a lossy segment must not wedge the ASPs."""
        from repro.apps.audio.client import AudioClient
        from repro.apps.audio.source import AudioSource

        net = Network(seed=13)
        src = net.add_host("src")
        router = net.add_router("router")
        client = net.add_host("client")
        net.link(src, router, bandwidth=100e6)
        seg = net.segment("lan", loss_rate=0.2)
        net.attach(router, seg)
        net.attach(client, seg)
        net.finalize()
        group = net.multicast_group("224.1.1.1", src, [client])

        deployment = Deployment()
        deployment.install(audio_router_asp(), [router])
        deployment.install(audio_client_asp(), [client])

        source = AudioSource(net, src, group)
        sink = AudioClient(net, client, group)
        source.start(until=10.0)
        net.run(until=10.5)

        assert source.frames_sent == 501  # t=0..10 inclusive
        # ~20% loss: most frames arrive, gaps are detected, no errors.
        assert 300 < sink.frames_received < 480
        assert sink.silent_periods
        assert router.planp.stats.runtime_errors == 0
        assert sink.restored

    def test_http_cluster_on_lossy_client_links(self):
        net = Network(seed=13)
        gateway = net.add_router("gw")
        server_host = net.add_host("s0")
        client_host = net.add_host("c0")
        net.link(server_host, gateway, bandwidth=100e6)
        net.link(client_host, gateway, loss_rate=0.05)
        net.finalize()
        trace = generate_trace(500, seed=13)
        server = HttpServer(net, server_host, trace.sizes)
        worker = HttpClientWorker(net, client_host, server_host.address,
                                  trace)
        worker.start()
        net.run(until=20.0)
        assert len(worker.completed) > 20  # TCP rides out the loss
        assert all(r.bytes_received == trace.sizes[r.path]
                   for r in worker.completed)


class TestServerFailure:
    def test_cluster_survives_one_server_death(self):
        """Kill one physical server mid-run; the ASP regenerated for the
        surviving server keeps the service up (the paper's
        maintenance-of-the-cluster claim)."""
        from repro.asps import http_gateway_asp

        net = Network(seed=14)
        gateway = net.add_router("gw")
        s0 = net.add_host("s0")
        s1 = net.add_host("s1")
        client = net.add_host("c")
        net.link(s0, gateway, bandwidth=100e6)
        net.link(s1, gateway, bandwidth=100e6)
        net.link(client, gateway)
        net.finalize()
        trace = generate_trace(1000, seed=14)
        HttpServer(net, s0, trace.sizes)
        HttpServer(net, s1, trace.sizes)
        virtual = gateway.interfaces[0].address

        deployment = Deployment()
        deployment.install(
            http_gateway_asp(str(virtual),
                             [str(s0.address), str(s1.address)]),
            [gateway], source_name="gw-2servers")

        worker = HttpClientWorker(net, client, virtual, trace)
        worker.start()

        def kill_s1_and_repair():
            # s1 dies: remove it from routing and re-point the gateway.
            alive = [n for n in net.nodes if n is not s1]
            compute_routes(alive)
            deployment.install(
                http_gateway_asp(str(virtual), [str(s0.address)]),
                [gateway], source_name="gw-1server")

        net.sim.at(5.0, kill_s1_and_repair)
        # A connection caught on the dead server needs its retransmission
        # budget (~12 s of backoff) before the client retries.
        net.run(until=25.0)
        before = [r for r in worker.completed if r.completed < 5.0]
        after = [r for r in worker.completed if r.completed > 18.0]
        assert before and after  # service continued after the failure


class TestFaultDrills:
    def test_link_down_during_audio_broadcast(self):
        """Failure drill: the fig. 5 LAN segment goes dark for two
        seconds mid-broadcast.  The client detects the silence, the
        stream restores when the segment heals, and nothing wedges."""
        from repro.apps.audio.client import AudioClient
        from repro.apps.audio.source import AudioSource

        net = Network(seed=16)
        src = net.add_host("src")
        router = net.add_router("router")
        client = net.add_host("client")
        net.link(src, router, bandwidth=100e6)
        seg = net.segment("lan")
        net.attach(router, seg)
        net.attach(client, seg)
        net.finalize()
        group = net.multicast_group("224.1.1.1", src, [client])

        deployment = Deployment()
        deployment.install(audio_router_asp(), [router])
        deployment.install(audio_client_asp(), [client])

        source = AudioSource(net, src, group)
        sink = AudioClient(net, client, group)
        net.faults.script([
            (3.0, net.faults.link_down, seg),
            (5.0, net.faults.link_up, seg),
        ])
        source.start(until=10.0)
        net.run(until=10.5)

        assert source.frames_sent == 501
        # ~2 s of a 10 s broadcast dropped: roughly 100 frames lost.
        assert 380 <= sink.frames_received <= 420
        assert sink.silent_periods  # the outage was detected...
        assert sink.restored        # ...and the stream came back
        assert router.planp.stats.runtime_errors == 0
        assert len(net.faults.log) == 2

    def test_router_crash_loses_asp_until_reinstalled(self):
        """A crashed router loses its downloaded program (volatile
        state); after restart it forwards by standard IP processing
        until an operator — or a deployment service manifest — puts the
        ASP back."""
        net = Network(seed=17)
        a = net.add_host("a")
        r = net.add_router("r")
        b = net.add_host("b")
        net.link(a, r)
        net.link(r, b)
        net.finalize()
        layer = PlanPLayer(r)
        layer.install(audio_router_asp())
        assert layer.loaded is not None
        net.faults.crash("r")
        net.faults.restart("r")
        assert layer.loaded is None
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        a.ip_send(udp_packet(a.address, b.address, 1, 7000, b"frame"))
        net.run()
        assert len(got) == 1  # standard forwarding still works
        assert r.planp.stats.packets_processed == 0


class TestMalformedTraffic:
    def test_garbage_on_audio_port_is_forwarded_not_fatal(self):
        net = Network(seed=15)
        a = net.add_host("a")
        r = net.add_router("r")
        b = net.add_host("b")
        net.link(a, r)
        net.link(r, b)
        net.finalize()
        layer = PlanPLayer(r)
        layer.install(audio_router_asp())
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        # A 2-byte "audio" packet: blobSub in the ASP would fail; its
        # handler forwards the packet untouched.
        a.ip_send(udp_packet(a.address, b.address, 1, 7000, b"xy"))
        net.run()
        assert len(got) == 1
        assert layer.stats.runtime_errors == 0  # handled in PLAN-P

    def test_monitor_ignores_malformed_queries(self):
        result = run_mpeg_experiment(use_asps=True, n_clients=2,
                                     duration=10.0)
        assert result.figures["modes"] == ["direct", "shared"]
