"""Image fetch service: server, client and the distillation experiment.

The (unmodified) application is a trivial datagram image service:
``GET <name>`` to the server's UDP port returns the image blob, or
``ERR <name>``.  The distiller ASP sits on the router between the fast
server network and the client's slow access link (paper §5's
"adaptation of data traffic such as images ... over low bandwidth
networks").
"""

from __future__ import annotations

from dataclasses import dataclass

from ...asps.images import IMAGE_PORT, image_distiller_asp
from ...experiments.result import ExperimentResult
from ...interp.image_prims import decode_image
from ...jit.pipeline import DEFAULT_BACKEND
from ...lang.errors import PlanPError
from ...net.addresses import HostAddr
from ...net.node import Host
from ...net.topology import Network
from ...obs import Observability
from ...runtime.deployment import Deployment
from .library import build_library

#: the mobile client's access link: a 64 kbit/s line (paper §5's "low
#: bandwidth networks")
SLOW_LINK_BPS = 64_000


class ImageServer:
    """Serves SIMG blobs over UDP."""

    def __init__(self, net: Network, host: Host,
                 images: dict[str, bytes] | None = None,
                 port: int = IMAGE_PORT):
        self.net = net
        self.host = host
        self.images = images if images is not None else build_library()
        self.port = port
        self.requests = 0
        self.errors = 0
        socket = net.udp(host).bind(port)
        socket.on_datagram = self._on_request
        self._socket = socket

    def _on_request(self, payload: bytes, src: HostAddr,
                    src_port: int) -> None:
        text = payload.decode("latin-1", errors="replace")
        if not text.startswith("GET "):
            self.errors += 1
            return
        name = text[4:].strip()
        self.requests += 1
        blob = self.images.get(name)
        if blob is None:
            self.errors += 1
            self._socket.sendto(src, src_port,
                                f"ERR {name}".encode("latin-1"))
            return
        self._socket.sendto(src, src_port, blob)


@dataclass
class FetchResult:
    name: str
    requested_at: float
    completed_at: float
    original_bytes: int
    received_bytes: int
    width: int
    height: int

    @property
    def latency(self) -> float:
        return self.completed_at - self.requested_at

    @property
    def distilled(self) -> bool:
        return self.received_bytes < self.original_bytes


class ImageClient:
    """Fetches images and records latency and fidelity."""

    def __init__(self, net: Network, host: Host, server: HostAddr,
                 originals: dict[str, bytes], port: int = IMAGE_PORT):
        self.net = net
        self.host = host
        self.server = server
        self.port = port
        self.originals = originals
        self.results: list[FetchResult] = []
        self.failures = 0
        self._socket = net.udp(host).bind()
        self._socket.on_datagram = self._on_reply
        self._pending: list[tuple[str, float]] = []

    def fetch(self, name: str, at: float = 0.0) -> None:
        def send() -> None:
            self._pending.append((name, self.net.sim.now))
            self._socket.sendto(self.server, self.port,
                                f"GET {name}".encode("latin-1"))

        self.net.sim.at(at, send)

    def _on_reply(self, payload: bytes, src: HostAddr,
                  src_port: int) -> None:
        if not self._pending:
            return
        name, requested_at = self._pending.pop(0)
        if payload.startswith(b"ERR"):
            self.failures += 1
            return
        try:
            pixels, _bits = decode_image(payload)
        except PlanPError as err:
            # A corrupt blob, not a programming error: decode_image
            # raises PlanPRuntimeError on malformed SIMG data, and only
            # that is survivable here.  Anything else should crash the
            # experiment loudly.
            self.failures += 1
            self.net.obs.metrics.counter("images.errors_total").inc()
            self.net.obs.events.emit("error", node=self.host.name,
                                     where="image-client", image=name,
                                     detail=str(err))
            return
        self.results.append(FetchResult(
            name=name, requested_at=requested_at,
            completed_at=self.net.sim.now,
            original_bytes=len(self.originals[name]),
            received_bytes=len(payload),
            width=pixels.shape[1], height=pixels.shape[0]))


class ImageExperimentResult(ExperimentResult):
    """Unified result of the §5 distillation run.  ``params``:
    ``distillation``, ``slow_kbps``; ``figures``: ``fetches`` (list of
    :class:`FetchResult`), ``distilled_count``."""

    _EXPERIMENT = "images"

    def _rehydrate(self) -> None:
        fetches = self.figures.get("fetches")
        if fetches and isinstance(fetches[0], dict):
            self.figures["fetches"] = [FetchResult(**f) for f in fetches]

    def mean_latency(self) -> float:
        fetches = self.figures["fetches"]
        if not fetches:
            return 0.0
        return sum(f.latency for f in fetches) / len(fetches)

    def result_for(self, name: str) -> FetchResult:
        return next(f for f in self.figures["fetches"]
                    if f.name == name)


def run_image_experiment(*, distillation: bool = True,
                         budget_bytes: int = 3000,
                         quantize_bits: int = 0,
                         backend: str = DEFAULT_BACKEND,
                         seed: int = 31,
                         obs: Observability | None = None
                         ) -> ImageExperimentResult:
    """Fetch the whole catalogue over a slow access link, with or
    without the distiller ASP on the border router."""
    net = Network(seed=seed, obs=obs)
    server_host = net.add_host("image-server")
    router = net.add_router("border")
    client_host = net.add_host("mobile-client")
    net.link(server_host, router, bandwidth=10e6, latency=0.001)
    net.link(client_host, router, bandwidth=SLOW_LINK_BPS, latency=0.01,
             queue_limit=256)
    net.finalize()

    library = build_library()
    ImageServer(net, server_host, library)
    client = ImageClient(net, client_host, server_host.address, library)

    if distillation:
        Deployment().install(
            image_distiller_asp(slow_kbps=SLOW_LINK_BPS // 1000 + 100,
                                budget_bytes=budget_bytes,
                                quantize_bits=quantize_bits),
            [router], backend=backend, source_name="image-distiller")

    for i, name in enumerate(sorted(library)):
        client.fetch(name, at=0.1 + 3.0 * i)
    net.run(until=0.1 + 3.0 * len(library) + 10.0)

    return ImageExperimentResult(
        seed=seed,
        params={"distillation": distillation,
                "slow_kbps": SLOW_LINK_BPS // 1000},
        metrics=net.metrics_snapshot(),
        figures={
            "fetches": client.results,
            "distilled_count": sum(1 for f in client.results
                                   if f.distilled),
        })
