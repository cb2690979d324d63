"""Unit tests of the MPEG monitor/capture ASPs (RecordingContext)."""

from repro.asps import mpeg_client_asp, mpeg_monitor_asp
from repro.interp import Interpreter, RecordingContext
from repro.interp.values import default_value
from repro.lang import parse, typecheck
from repro.net.addresses import HostAddr
from repro.net.packet import IpHeader, TcpHeader, UdpHeader

from ..conftest import delivered, remote_emissions

SERVER = HostAddr.parse("10.0.5.5")
CLIENT = HostAddr.parse("10.0.6.6")
OTHER = HostAddr.parse("10.0.7.7")
MONITOR = HostAddr.parse("10.0.8.8")


class MonitorHarness:
    def __init__(self):
        info = typecheck(parse(mpeg_monitor_asp()))
        self.ctx = RecordingContext(host=MONITOR)
        self.interp = Interpreter(info, self.ctx)
        self.tcp_chan, self.udp_chan = info.channels["network"]
        self.ps = default_value(self.tcp_chan.protocol_state_type)
        self.states = {
            id(self.tcp_chan): self.interp.initial_channel_state(
                self.tcp_chan, self.ctx),
            id(self.udp_chan): self.interp.initial_channel_state(
                self.udp_chan, self.ctx)}

    def feed_tcp(self, src, dst, sport, dport, text):
        packet = (IpHeader(src=src, dst=dst),
                  TcpHeader(src_port=sport, dst_port=dport), text)
        self.ps, self.states[id(self.tcp_chan)] = \
            self.interp.run_channel(self.tcp_chan, self.ps,
                                    self.states[id(self.tcp_chan)],
                                    packet, self.ctx)

    def query(self, file_name, src=OTHER):
        packet = (IpHeader(src=src, dst=MONITOR),
                  UdpHeader(src_port=40001, dst_port=9700),
                  f"QRY {file_name}")
        before = len(remote_emissions(self.ctx))
        self.ps, self.states[id(self.udp_chan)] = \
            self.interp.run_channel(self.udp_chan, self.ps,
                                    self.states[id(self.udp_chan)],
                                    packet, self.ctx)
        reply = remote_emissions(self.ctx)[before]
        return reply.packet_value

    def observe_session(self, file_name="movie.mpg", port=9000):
        self.feed_tcp(CLIENT, SERVER, 40000, 8000,
                      f"PLAY {file_name} {port}\n")
        self.feed_tcp(SERVER, CLIENT, 8000, 40000,
                      f"SETUP {file_name} 352 240 24 IBBP\n")


class TestMonitorAsp:
    def test_miss_before_any_session(self):
        harness = MonitorHarness()
        reply = harness.query("movie.mpg")
        assert reply[2].startswith("MISS movie.mpg")

    def test_hit_after_play_and_setup(self):
        harness = MonitorHarness()
        harness.observe_session()
        reply = harness.query("movie.mpg")
        header, _, setup = reply[2].partition("\n")
        assert header == f"HIT {CLIENT} 9000"
        assert setup.startswith("SETUP movie.mpg")

    def test_reply_addressing(self):
        harness = MonitorHarness()
        harness.observe_session()
        reply = harness.query("movie.mpg", src=OTHER)
        assert reply[0].src == MONITOR
        assert reply[0].dst == OTHER
        assert reply[1].dst_port == 9800  # the fixed client reply port

    def test_play_without_setup_is_miss(self):
        harness = MonitorHarness()
        harness.feed_tcp(CLIENT, SERVER, 40000, 8000,
                         "PLAY movie.mpg 9000\n")
        assert harness.query("movie.mpg")[2].startswith("MISS")

    def test_unrelated_tcp_traffic_ignored_and_forwarded(self):
        harness = MonitorHarness()
        before = len(remote_emissions(harness.ctx))
        harness.feed_tcp(CLIENT, SERVER, 40000, 80,
                         "GET / HTTP/1.0\r\n\r\n")
        assert len(remote_emissions(harness.ctx)) == before + 1
        assert harness.query("movie.mpg")[2].startswith("MISS")

    def test_per_file_tracking(self):
        harness = MonitorHarness()
        harness.observe_session("a.mpg", 9001)
        harness.observe_session("b.mpg", 9002)
        assert "9001" in harness.query("a.mpg")[2]
        assert "9002" in harness.query("b.mpg")[2]

    def test_malformed_query_forwarded_not_answered(self):
        harness = MonitorHarness()
        packet = (IpHeader(src=OTHER, dst=MONITOR),
                  UdpHeader(src_port=1, dst_port=9700), "QRY")
        harness.interp.run_channel(
            harness.udp_chan, harness.ps,
            harness.states[id(harness.udp_chan)], packet, harness.ctx)
        emission = remote_emissions(harness.ctx)[-1]
        assert emission.packet_value[2] == "QRY"  # passthrough


class TestCaptureAsp:
    def _harness(self):
        info = typecheck(parse(mpeg_client_asp()))
        ctx = RecordingContext(host=CLIENT)
        interp = Interpreter(info, ctx)
        config_chan, video_chan = info.channels["network"]
        ps = default_value(config_chan.protocol_state_type)
        return interp, ctx, config_chan, video_chan, ps

    def test_register_then_capture(self):
        interp, ctx, config_chan, video_chan, ps = self._harness()
        config = (IpHeader(src=CLIENT, dst=CLIENT),
                  UdpHeader(src_port=40002, dst_port=9801),
                  OTHER, 9000)
        ps, _ = interp.run_channel(config_chan, ps, 0, config, ctx)
        video = (IpHeader(src=SERVER, dst=OTHER),
                 UdpHeader(src_port=8001, dst_port=9000), b"frame")
        ps, _ = interp.run_channel(video_chan, ps, 0, video, ctx)
        assert len(delivered(ctx)) == 2  # the config echo + the capture
        assert delivered(ctx)[-1].packet_value[2] == b"frame"

    def test_unregistered_stream_not_captured(self):
        interp, ctx, _config_chan, video_chan, ps = self._harness()
        video = (IpHeader(src=SERVER, dst=OTHER),
                 UdpHeader(src_port=8001, dst_port=9000), b"frame")
        interp.run_channel(video_chan, ps, 0, video, ctx)
        assert delivered(ctx) == []
        assert len(remote_emissions(ctx)) == 1  # forwarded instead
