"""The audio broadcasting experiment (paper §3.1, figures 5–7).

Builds the figure 5 network — audio source behind a router, the client
and the load generator sharing one segment — deploys the router and
client ASPs, replays a load schedule, and reports the client-side
bandwidth series (figure 6) and silent-period counts (figure 7).

Time is scaled: the paper's 450-second run with breakpoints at 100 / 220
/ 340 s maps linearly onto any requested duration, so tests can run a
45-second version of the same experiment.
"""

from __future__ import annotations

from typing import Callable

from ...asps.audio import (AUDIO_PORT, FMT_MONO16, FMT_MONO8, FMT_STEREO16,
                           audio_client_asp, audio_router_asp)
from ...experiments.result import ExperimentResult
from ...net.packet import UdpHeader
from ...net.topology import Network
from ...obs import Observability
from ...runtime.deployment import Deployment
from .client import BUCKET_S, AudioClient, BandwidthSample
from .loadgen import LoadGenerator
from .source import AudioSource

#: The multicast group of the broadcast.
AUDIO_GROUP = "224.1.1.1"

#: Segment capacity (bps).  2 Mbit/s keeps the paper's 176-kbit stream a
#: realistic fraction of the medium, as 10 Mbit Ethernet did in 1998.
SEGMENT_BANDWIDTH = 2_000_000

#: The figure 6 load schedule as (fraction-of-run, offered bps):
#: none, then large at 100/450, medium at 220/450, small at 340/450.
FIG6_SCHEDULE = (
    (100 / 450, 1_700_000),   # large: forces 8-bit mono (44 kbit/s)
    (220 / 450, 1_250_000),   # medium: oscillates between 44 and 88
    (340 / 450, 600_000),     # small: settles at 16-bit mono (88)
)


class _WireTap:
    """Samples the audio stream as it arrives on the client's wire."""

    def __init__(self, net: Network, group):
        self._net = net
        self._group = group
        self._buckets: dict[int, tuple[int, dict[int, int]]] = {}

    def on_packet(self, packet, iface) -> None:
        if packet.ip.dst != self._group:
            return
        if not (isinstance(packet.transport, UdpHeader)
                and packet.transport.dst_port == AUDIO_PORT):
            return
        fmt = packet.payload[0] if packet.payload else 0
        bucket = int(self._net.sim.now / BUCKET_S)
        nbytes, fmts = self._buckets.get(bucket, (0, {}))
        fmts[fmt] = fmts.get(fmt, 0) + 1
        self._buckets[bucket] = (nbytes + len(packet.payload), fmts)

    def series(self) -> list[BandwidthSample]:
        out = []
        for bucket in sorted(self._buckets):
            nbytes, fmts = self._buckets[bucket]
            dominant = max(fmts.items(), key=lambda kv: kv[1])[0]
            out.append(BandwidthSample(
                time=bucket * BUCKET_S,
                kbps=nbytes * 8 / BUCKET_S / 1000,
                quality=dominant, formats=dict(fmts)))
        return out


class AudioExperimentResult(ExperimentResult):
    """Unified result of the figure 5/6/7 audio run.

    ``params``: ``adaptation``, ``duration``; ``figures``:
    ``bandwidth_series`` (list of :class:`BandwidthSample`),
    ``silent_periods``, ``frames_sent``, ``frames_received``,
    ``quality_fractions``, ``restored``, ``segment_drops``.
    """

    _EXPERIMENT = "audio"

    def _rehydrate(self) -> None:
        series = self.figures.get("bandwidth_series")
        if series and isinstance(series[0], dict):
            self.figures["bandwidth_series"] = [
                BandwidthSample(
                    time=s["time"], kbps=s["kbps"], quality=s["quality"],
                    formats={int(k): v for k, v in s["formats"].items()})
                for s in series]
        fractions = self.figures.get("quality_fractions")
        if fractions:
            self.figures["quality_fractions"] = {
                int(k): v for k, v in fractions.items()}

    def dominant_quality_between(self, start: float, end: float) -> int:
        """The most common quality level in a time window (for asserting
        the figure 6 phases)."""
        counts: dict[int, int] = {}
        for sample in self.figures["bandwidth_series"]:
            if start <= sample.time < end:
                counts[sample.quality] = counts.get(sample.quality, 0) + 1
        if not counts:
            return -1
        return max(counts.items(), key=lambda kv: kv[1])[0]

    def mean_kbps_between(self, start: float, end: float) -> float:
        vals = [s.kbps for s in self.figures["bandwidth_series"]
                if start <= s.time < end]
        return sum(vals) / len(vals) if vals else 0.0


def run_audio_experiment(*, adaptation: bool = True,
                         duration: float = 450.0,
                         load_schedule: list[tuple[float, float]]
                         | None = None,
                         constant_load_bps: float | None = None,
                         seed: int = 7,
                         obs: Observability | None = None,
                         tracer: Callable[[Network], object]
                         | None = None) -> AudioExperimentResult:
    """Run the figure 5 topology for ``duration`` simulated seconds.

    ``load_schedule`` entries are (absolute time, offered bps); when
    omitted, the figure 6 schedule is scaled to ``duration``.
    ``constant_load_bps`` overrides the schedule with a flat load (used
    by the figure 7 sweep).  ``obs`` supplies an external observability
    scope; ``tracer`` is called with the finalized network before any
    traffic starts (e.g. ``lambda net: PacketTracer(net).attach_all()``,
    which logs every packet's rx/up/tx records into ``net.obs.events``
    beside the drops the network logs anyway).
    """
    net = Network(seed=seed, obs=obs)
    source_host = net.add_host("audio-source")
    router = net.add_router("router")
    client_host = net.add_host("client")
    loadgen_host = net.add_host("loadgen")
    sink_host = net.add_host("sink")

    net.link(source_host, router, bandwidth=100e6, latency=0.0005)
    segment = net.segment("client-lan", bandwidth=SEGMENT_BANDWIDTH,
                          latency=0.0002, queue_limit=64)
    for node in (router, client_host, loadgen_host, sink_host):
        net.attach(node, segment)
    net.finalize()
    if tracer is not None:
        tracer(net)
    group = net.multicast_group(AUDIO_GROUP, source_host, [client_host])

    source = AudioSource(net, source_host, group)
    client = AudioClient(net, client_host, group)
    loadgen = LoadGenerator(net, loadgen_host, sink_host.address)

    # Figure 6 measures the bandwidth the audio traffic uses *on the
    # wire* — tap the client's reception before the client ASP restores
    # frames to full quality.
    wire = _WireTap(net, group)
    client_host.receive_taps.append(wire.on_packet)

    if adaptation:
        deployment = Deployment()
        deployment.install(audio_router_asp(), [router],
                           source_name="audio-router")
        deployment.install(audio_client_asp(), [client_host],
                           source_name="audio-client")

    if constant_load_bps is not None:
        loadgen.set_rate(constant_load_bps)
    else:
        schedule = load_schedule
        if schedule is None:
            schedule = [(frac * duration, rate)
                        for frac, rate in FIG6_SCHEDULE]
        loadgen.schedule(schedule)

    source.start(at=0.0, until=duration)
    net.run(until=duration)

    return AudioExperimentResult(
        seed=seed,
        params={"adaptation": adaptation, "duration": duration},
        metrics=net.metrics_snapshot(),
        figures={
            "bandwidth_series": wire.series(),
            "silent_periods": len(client.silent_periods),
            "frames_sent": source.frames_sent,
            "frames_received": client.frames_received,
            "quality_fractions": {fmt: client.quality_fraction(fmt)
                                  for fmt in (FMT_STEREO16, FMT_MONO16,
                                              FMT_MONO8)},
            "restored": client.restored,
            "segment_drops": segment.stats.packets_dropped,
        })


class GapSweepResult(ExperimentResult):
    """Unified result of the figure 7 sweep.  ``figures["sweep"]`` maps
    ``str(offered bps)`` to the with/without silent-period and frame
    counts."""

    _EXPERIMENT = "audio_gap_sweep"

    def level(self, load_bps: float) -> dict[str, int]:
        return self.figures["sweep"][str(load_bps)]


def run_gap_sweep(*, load_levels_bps: list[float],
                  duration: float = 60.0,
                  seed: int = 7) -> dict[float, dict[str, int]]:
    """The figure 7 sweep: silent periods with and without adaptation
    across segment load levels."""
    results: dict[float, dict[str, int]] = {}
    for load in load_levels_bps:
        with_adapt = run_audio_experiment(
            adaptation=True, duration=duration, constant_load_bps=load,
            seed=seed)
        without = run_audio_experiment(
            adaptation=False, duration=duration, constant_load_bps=load,
            seed=seed)
        results[load] = {
            "with_adaptation": with_adapt.figures["silent_periods"],
            "without_adaptation": without.figures["silent_periods"],
            "with_frames": with_adapt.figures["frames_received"],
            "without_frames": without.figures["frames_received"],
        }
    return results
