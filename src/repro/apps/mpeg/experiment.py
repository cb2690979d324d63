"""The point-to-point→multipoint MPEG experiment (paper §3.3).

Topology: the video server behind a router; a monitor machine and the
clients share one segment.  With the ASPs deployed, the first client
opens the only real server connection; later clients discover it via
the monitor and capture the stream off the segment.  Without ASPs every
client opens its own connection, multiplying the server's egress — the
experiment's headline is that sharing costs no traffic-rate degradation
while cutting upstream traffic to one stream.
"""

from __future__ import annotations

from ...asps.mpeg import mpeg_client_asp, mpeg_monitor_asp
from ...experiments.result import ExperimentResult
from ...net.topology import Network
from ...obs import Observability
from ...runtime.deployment import Deployment
from ...runtime.planp_layer import PlanPLayer
from .client import MpegClient
from .server import MpegServer
from .stream import MpegStream


class MpegExperimentResult(ExperimentResult):
    """Unified result of the §3.3 multipoint run.

    ``params``: ``use_asps``, ``n_clients``, ``duration``; ``figures``:
    ``server_sessions``, ``server_video_bytes``, ``uplink_bytes``,
    ``per_client_frames``, ``per_client_rate``, ``modes``,
    ``nominal_fps``.
    """

    _EXPERIMENT = "mpeg"

    @property
    def all_clients_at_full_rate(self) -> bool:
        """No traffic-rate degradation: every client receives (almost)
        the nominal frame rate."""
        return all(rate >= 0.9 * self.figures["nominal_fps"]
                   for rate in self.figures["per_client_rate"])


def run_mpeg_experiment(*, use_asps: bool = True, n_clients: int = 3,
                        duration: float = 20.0, warmup: float = 5.0,
                        seed: int = 23,
                        obs: Observability | None = None
                        ) -> MpegExperimentResult:
    """Run the §3.3 scenario with ``n_clients`` viewers of one stream."""
    net = Network(seed=seed, obs=obs)
    server_host = net.add_host("video-server")
    router = net.add_router("router")
    monitor_host = net.add_host("monitor")
    client_hosts = [net.add_host(f"viewer{i}") for i in range(n_clients)]

    uplink = net.link(server_host, router, bandwidth=100e6,
                      latency=0.0005)
    segment = net.segment("viewer-lan", bandwidth=10e6, latency=0.0002,
                          queue_limit=256)
    net.attach(router, segment)
    net.attach(monitor_host, segment)
    for host in client_hosts:
        net.attach(host, segment)
    net.finalize()

    stream = MpegStream(name="concert.mpg")
    server = MpegServer(net, server_host, {stream.name: stream})

    monitor_addr = None
    if use_asps:
        deployment = Deployment()
        # The monitor and capture layers listen promiscuously.
        PlanPLayer(monitor_host, promiscuous=True)
        for host in client_hosts:
            PlanPLayer(host, promiscuous=True)
        deployment.install(mpeg_monitor_asp(), [monitor_host],
                           source_name="mpeg-monitor")
        deployment.install(mpeg_client_asp(), client_hosts,
                           source_name="mpeg-client")
        monitor_addr = monitor_host.address

    clients = []
    for i, host in enumerate(client_hosts):
        client = MpegClient(net, host, server_host.address, stream.name,
                            monitor=monitor_addr,
                            video_port=9000 + i)
        client.start(at=0.5 + 1.5 * i)
        clients.append(client)

    net.run(until=duration)
    server.stop()

    window = (warmup + 1.5 * n_clients, duration)
    uplink_tx = uplink.tx_queue(uplink.interfaces[0])
    return MpegExperimentResult(
        seed=seed,
        params={"use_asps": use_asps, "n_clients": n_clients,
                "duration": duration},
        metrics=net.metrics_snapshot(),
        figures={
            "server_sessions": len(server.sessions),
            "server_video_bytes": server.total_video_bytes,
            "uplink_bytes": uplink_tx.stats.bytes_sent,
            "per_client_frames": [c.frames_received for c in clients],
            "per_client_rate": [c.frame_rate(window) for c in clients],
            "modes": [c.mode.value for c in clients],
            "nominal_fps": stream.fps,
        })
