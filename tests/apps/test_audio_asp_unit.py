"""Unit tests of the audio ASPs' packet transformations (no network:
RecordingContext with controlled link readings)."""

import pytest

from repro.apps.audio.codec import (decode_frame, degrade, encode_frame,
                                    generate_pcm_stereo16,
                                    restore_to_stereo16)
from repro.asps import audio_client_asp, audio_router_asp
from repro.asps.audio import FMT_MONO16, FMT_MONO8, FMT_STEREO16
from repro.interp import Interpreter, RecordingContext
from repro.lang import parse, typecheck
from repro.net.addresses import HostAddr
from repro.net.packet import IpHeader, UdpHeader

GROUP = HostAddr.parse("224.1.1.1")


def audio_packet(fmt=FMT_STEREO16, seq=0, samples=32):
    pcm = generate_pcm_stereo16(seq, samples)
    payload = encode_frame(fmt, seq, degrade(pcm, 0, fmt))
    return (IpHeader(src=HostAddr.parse("10.0.0.1"), dst=GROUP),
            UdpHeader(src_port=5000, dst_port=7000), payload)


def run_router(packet, *, load, bandwidth=2000, **thresholds):
    info = typecheck(parse(audio_router_asp(**thresholds)))
    ctx = RecordingContext(default_load=load,
                           default_bandwidth=bandwidth)
    interp = Interpreter(info, ctx)
    decl = info.channels["network"][0]
    ss = interp.initial_channel_state(decl, ctx)
    interp.run_channel(decl, 0, ss, packet, ctx)
    assert len(ctx.remote_emissions) == 1
    return ctx.remote_emissions[0].packet_value


class TestRouterAsp:
    def test_no_load_passes_through_unchanged(self):
        packet = audio_packet()
        emitted = run_router(packet, load=0)
        assert emitted[2] == packet[2]

    def test_mid_load_degrades_to_mono16(self):
        # headroom = 2000 - 900 = 1100: below headMid, above headLow
        packet = audio_packet()
        emitted = run_router(packet, load=900)
        fmt, seq, pcm = decode_frame(emitted[2])
        assert fmt == FMT_MONO16
        assert seq == 0
        original = decode_frame(packet[2])[2]
        assert pcm == degrade(original, FMT_STEREO16, FMT_MONO16)

    def test_high_load_degrades_to_mono8(self):
        packet = audio_packet()
        emitted = run_router(packet, load=1800)  # headroom 200 < 600
        fmt, _seq, pcm = decode_frame(emitted[2])
        assert fmt == FMT_MONO8
        original = decode_frame(packet[2])[2]
        assert pcm == degrade(original, FMT_STEREO16, FMT_MONO8)

    @pytest.mark.parametrize("low, mid, fmt", [
        (5000, 8000, FMT_MONO8),    # aggressive: everything looks loaded
        (600, 1600, FMT_MONO16),    # the shipped policy
        (10, 20, FMT_STEREO16),     # relaxed: nothing does
    ])
    def test_thresholds_decide_the_emitted_format(self, low, mid, fmt):
        """The policy ablation: one link reading (1100 kbit/s spare),
        three regenerated routers, three wire formats."""
        emitted = run_router(audio_packet(), load=900,
                             headroom_low_kbps=low,
                             headroom_mid_kbps=mid)
        assert decode_frame(emitted[2])[0] == fmt

    def test_never_upgrades_already_degraded_frames(self):
        packet = audio_packet(fmt=FMT_MONO8, seq=3)
        emitted = run_router(packet, load=0)  # plenty of headroom
        fmt, seq, _pcm = decode_frame(emitted[2])
        assert fmt == FMT_MONO8  # cannot reconstruct lost fidelity
        assert seq == 3

    def test_preserves_headers(self):
        packet = audio_packet()
        emitted = run_router(packet, load=1800)
        assert emitted[0] == packet[0]
        assert emitted[1] == packet[1]

    def test_non_audio_traffic_untouched(self):
        info = typecheck(parse(audio_router_asp()))
        ctx = RecordingContext(default_load=1800)
        interp = Interpreter(info, ctx)
        decl = info.channels["network"][0]
        other = (IpHeader(dst=HostAddr.parse("10.0.0.2")),
                 UdpHeader(src_port=1, dst_port=53), b"dns?")
        interp.run_channel(decl, 0, None, other, ctx)
        assert ctx.remote_emissions[0].packet_value == other


class TestClientAsp:
    def run_client(self, packet):
        info = typecheck(parse(audio_client_asp()))
        ctx = RecordingContext()
        interp = Interpreter(info, ctx)
        decl = info.channels["network"][0]
        interp.run_channel(decl, 0, None, packet, ctx)
        assert len(ctx.delivered) == 1
        return ctx.delivered[0].packet_value

    @pytest.mark.parametrize("fmt", [FMT_STEREO16, FMT_MONO16,
                                     FMT_MONO8])
    def test_restores_every_format_to_stereo(self, fmt):
        packet = audio_packet(fmt=fmt, seq=9)
        delivered = self.run_client(packet)
        out_fmt, seq, pcm = decode_frame(delivered[2])
        assert out_fmt == FMT_STEREO16
        assert seq == 9
        wire_pcm = decode_frame(packet[2])[2]
        assert pcm == restore_to_stereo16(wire_pcm, fmt)

    def test_stereo_frames_unchanged_in_content(self):
        packet = audio_packet(fmt=FMT_STEREO16, seq=1)
        delivered = self.run_client(packet)
        assert decode_frame(delivered[2])[2] == \
            decode_frame(packet[2])[2]

    def test_malformed_frame_delivered_as_is(self):
        packet = (IpHeader(dst=GROUP),
                  UdpHeader(src_port=1, dst_port=7000), b"xy")
        delivered = self.run_client(packet)
        assert delivered[2] == b"xy"
