"""Audio application tests: codec, source, client, load generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.audio import codec
from repro.apps.audio.client import AudioClient
from repro.apps.audio.loadgen import PACKET_BYTES, LoadGenerator
from repro.apps.audio.source import AudioSource
from repro.asps.audio import FMT_MONO16, FMT_MONO8, FMT_STEREO16
from repro.net import Network


class TestCodec:
    def test_frame_encode_decode_roundtrip(self):
        pcm = codec.generate_pcm_stereo16(3, 64)
        payload = codec.encode_frame(FMT_STEREO16, 3, pcm)
        fmt, seq, got = codec.decode_frame(payload)
        assert (fmt, seq, got) == (FMT_STEREO16, 3, pcm)

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError, match="short"):
            codec.decode_frame(b"ab")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            codec.encode_frame(7, 0, b"")

    def test_pcm_deterministic(self):
        assert codec.generate_pcm_stereo16(5, 32) == \
            codec.generate_pcm_stereo16(5, 32)

    def test_bandwidth_ladder_matches_paper(self):
        # 176 / 88 / 44 kbit/s at the default sample rate.
        assert codec.frame_kbps(FMT_STEREO16) == 176.0
        assert codec.frame_kbps(FMT_MONO16) == 88.0
        assert codec.frame_kbps(FMT_MONO8) == 44.0

    def test_degrade_sizes(self):
        pcm = codec.generate_pcm_stereo16(0, 110)
        assert len(codec.degrade(pcm, 0, 1)) == len(pcm) // 2
        assert len(codec.degrade(pcm, 0, 2)) == len(pcm) // 4
        assert codec.degrade(pcm, 1, 1) == pcm  # no-op

    def test_restore_sizes(self):
        pcm = codec.generate_pcm_stereo16(0, 110)
        m8 = codec.degrade(pcm, 0, 2)
        assert len(codec.restore_to_stereo16(m8, 2)) == len(pcm)

    @given(st.integers(0, 100), st.integers(2, 64))
    @settings(max_examples=30, deadline=None)
    def test_degrade_restore_bounded_distortion(self, seq, n):
        """Property: degrading to 8-bit mono and restoring keeps every
        sample within quantisation error of the mono mix."""
        pcm = codec.generate_pcm_stereo16(seq, n)
        mono = np.frombuffer(codec.degrade(pcm, 0, 1), "<i2")
        restored = np.frombuffer(
            codec.restore_to_stereo16(codec.degrade(pcm, 0, 2), 2),
            "<i2").reshape(-1, 2)[:, 0]
        assert np.all(np.abs(mono.astype(int)
                             - restored.astype(int)) < 256)

    def test_degrade_matches_asp_primitives(self):
        """The Python reference and the PLAN-P primitives agree."""
        from repro.interp.primitives import PRIMITIVES
        from repro.interp import RecordingContext

        ctx = RecordingContext()
        pcm = codec.generate_pcm_stereo16(1, 50)
        via_prims = PRIMITIVES["audio16to8"].impl(
            ctx, [PRIMITIVES["audioStereoToMono"].impl(ctx, [pcm])])
        assert via_prims == codec.degrade(pcm, 0, 2)


class TestSourceAndClient:
    def _net(self):
        net = Network(seed=4)
        src = net.add_host("src")
        dst = net.add_host("dst")
        net.link(src, dst)
        net.finalize()
        group = net.multicast_group("224.9.9.9", src, [dst])
        return net, src, dst, group

    def test_source_paces_frames(self):
        net, src, dst, group = self._net()
        source = AudioSource(net, src, group)
        source.start(until=1.0)
        net.run(until=1.0)
        assert source.frames_sent == 50  # 20 ms frames for 1 s

    def test_client_receives_and_counts(self):
        net, src, dst, group = self._net()
        source = AudioSource(net, src, group)
        client = AudioClient(net, dst, group)
        source.start(until=1.0)
        net.run(until=1.1)
        assert client.frames_received == source.frames_sent
        assert client.silent_periods == []
        assert client.restored

    def test_gap_detection_on_pause(self):
        net, src, dst, group = self._net()
        source = AudioSource(net, src, group)
        client = AudioClient(net, dst, group)
        source.start(until=0.5)
        # Resume the same source after a 1-second silence.
        net.sim.at(1.5, lambda: source.start(at=1.5, until=2.0))
        net.run(until=2.2)
        assert len(client.silent_periods) == 1
        assert client.silent_periods[0].duration == pytest.approx(
            1.02, abs=0.1)

    def test_bandwidth_series_reports_stereo_rate(self):
        net, src, dst, group = self._net()
        source = AudioSource(net, src, group)
        client = AudioClient(net, dst, group)
        source.start(until=3.0)
        net.run(until=3.0)
        series = client.bandwidth_series()
        assert len(series) == 3
        assert all(170 < s.kbps < 185 for s in series)
        assert all(s.quality == FMT_STEREO16 for s in series)


class TestLoadGenerator:
    def test_rate_accuracy(self):
        net = Network(seed=4)
        a, b = net.add_host("a"), net.add_host("b")
        net.link(a, b, bandwidth=100e6)
        net.finalize()
        gen = LoadGenerator(net, a, b.address)
        gen.set_rate(800_000)  # 100 kB/s
        net.run(until=2.0)
        sent_bytes = gen.packets_sent * PACKET_BYTES
        assert sent_bytes == pytest.approx(200_000, rel=0.05)

    def test_schedule_steps(self):
        net = Network(seed=4)
        a, b = net.add_host("a"), net.add_host("b")
        net.link(a, b, bandwidth=100e6)
        net.finalize()
        gen = LoadGenerator(net, a, b.address)
        gen.schedule([(0.0, 400_000), (1.0, 0.0)])
        net.run(until=2.0)
        sent = gen.packets_sent
        net.sim.run(until=3.0)
        assert gen.packets_sent == sent  # rate 0 stops traffic

    def test_zero_rate_sends_nothing(self):
        net = Network(seed=4)
        a, b = net.add_host("a"), net.add_host("b")
        net.link(a, b)
        net.finalize()
        gen = LoadGenerator(net, a, b.address)
        net.run(until=1.0)
        assert gen.packets_sent == 0
