"""Small-unit tests for corners not covered elsewhere."""

import pytest

from repro.lang.errors import (PlanPRuntimeError, SourcePos,
                               VerificationError)

from ..conftest import delivered, remote_emissions


class TestErrors:
    def test_source_pos_formatting(self):
        assert str(SourcePos(3, 7)) == "3:7"

    def test_error_message_includes_position(self):
        err = PlanPRuntimeError("boom", SourcePos(2, 5))
        assert str(err) == "2:5: boom"

    def test_error_without_position(self):
        err = PlanPRuntimeError("boom")
        assert str(err) == "boom"

    def test_positions_are_ordered(self):
        assert SourcePos(1, 9) < SourcePos(2, 1)
        assert SourcePos(2, 1) < SourcePos(2, 4)

    def test_verification_error_carries_analysis(self):
        err = VerificationError("nope", analysis="delivery")
        assert err.analysis == "delivery"

    def test_runtime_error_default_exception_name(self):
        assert PlanPRuntimeError("x").exception_name == "Error"


class TestPipeline:
    def test_unknown_backend_rejected(self):
        from repro.jit import make_engine
        from repro.lang import parse, typecheck

        info = typecheck(parse(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (ps, ss))"))
        with pytest.raises(ValueError, match="unknown backend"):
            make_engine(info, "llvm")

    def test_load_program_reports_lines_and_backend(self):
        from repro.jit import DEFAULT_BACKEND, load_program

        loaded = load_program(
            "-- header comment\n"
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is\n"
            "  (OnRemote(network, p); (ps, ss))\n")
        assert loaded.source_lines == 2
        assert loaded.backend == DEFAULT_BACKEND


class TestMpegServerEdges:
    def test_stop_halts_clocks(self):
        from repro.apps.mpeg import MpegServer, MpegStream
        from repro.net import Network

        net = Network(seed=3)
        s = net.add_host("s")
        c = net.add_host("c")
        net.link(s, c)
        net.finalize()
        stream = MpegStream(name="f")
        server = MpegServer(net, s, {"f": stream})
        conn = net.tcp(c).connect(s.address, 8000)
        conn.on_connected = lambda x: x.send(b"PLAY f 9000\n")
        net.run(until=1.0)
        sent_at_stop = server.sessions[0].frames_sent
        server.stop()
        net.run(until=3.0)
        assert server.sessions[0].frames_sent == sent_at_stop

    def test_malformed_play_rejected(self):
        from repro.apps.mpeg import MpegServer, MpegStream
        from repro.net import Network

        net = Network(seed=3)
        s = net.add_host("s")
        c = net.add_host("c")
        net.link(s, c)
        net.finalize()
        server = MpegServer(net, s, {"f": MpegStream(name="f")})
        got = bytearray()
        conn = net.tcp(c).connect(s.address, 8000)
        conn.on_data = lambda x, d: got.extend(d)
        conn.on_connected = lambda x: x.send(b"GARBAGE\n")
        net.run(until=1.0)
        assert server.errors == 1
        assert got.startswith(b"ERROR")


class TestContextDefaults:
    def test_recording_context_defaults(self):
        from repro.interp import RecordingContext
        from repro.net.addresses import HostAddr

        ctx = RecordingContext()
        somewhere = HostAddr.parse("1.2.3.4")
        assert ctx.link_load(somewhere) == 0
        assert ctx.link_bandwidth(somewhere) == 10_000
        assert ctx.queue_len(somewhere) == 0
        assert ctx.time_ms() == 0

    def test_emission_helpers(self):
        from repro.interp import RecordingContext
        from repro.net.packet import IpHeader, UdpHeader

        ctx = RecordingContext()
        pkt = (IpHeader(), UdpHeader(), b"")
        ctx.emit_remote("network", pkt)
        ctx.deliver(pkt)
        assert len(remote_emissions(ctx)) == 1
        assert len(delivered(ctx)) == 1


class TestTopologyGuards:
    def test_run_before_finalize_rejected(self):
        from repro.net import Network

        net = Network()
        net.add_host("a")
        with pytest.raises(RuntimeError, match="finalize"):
            net.run(until=1.0)

    def test_duplicate_node_name_rejected(self):
        from repro.net import Network

        net = Network()
        net.add_host("a")
        with pytest.raises(ValueError, match="duplicate"):
            net.add_host("a")

    def test_node_lookup_by_name(self):
        from repro.net import Network

        net = Network()
        a = net.add_host("a")
        assert net["a"] is a

    def test_link_is_two_ended(self):
        from repro.net import Network

        net = Network()
        a = net.add_host("a")
        b = net.add_host("b")
        c = net.add_host("c")
        link = net.link(a, b)
        with pytest.raises(RuntimeError, match="two ends"):
            c.add_interface(link, c.address if c.interfaces else
                            __import__("repro.net.addresses",
                                       fromlist=["HostAddr"])
                            .HostAddr.parse("10.9.9.9"))


class TestDeclaredDependencies:
    def test_runtime_never_imports_networkx(self):
        """``pyproject.toml`` declares numpy alone; the frozen routing and
        termination oracles under ``tests/`` are networkx's only users."""
        import subprocess
        import sys

        code = ("import sys, repro.net, repro.analysis, repro.runtime, "
                "repro.apps.http, repro.apps.audio, repro.experiments; "
                "assert 'networkx' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True)


class TestChannelStateIsolation:
    def test_overloads_have_independent_channel_state(self):
        from repro.interp import Interpreter, RecordingContext
        from repro.lang import parse, typecheck
        from ..conftest import tcp_packet_value, udp_packet_value

        src = (
            "channel network(ps : int, ss : int, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (ps, ss + 1))\n"
            "channel network(ps : int, ss : int, q : ip*udp*blob) is "
            "(OnRemote(network, q); (ps, ss + 100))")
        info = typecheck(parse(src))
        ctx = RecordingContext()
        interp = Interpreter(info, ctx)
        tcp_decl, udp_decl = info.channels["network"]
        ps = 0
        ss_tcp = interp.initial_channel_state(tcp_decl, ctx)
        ss_udp = interp.initial_channel_state(udp_decl, ctx)
        ps, ss_tcp = interp.run_channel(tcp_decl, ps, ss_tcp,
                                        tcp_packet_value(), ctx)
        ps, ss_udp = interp.run_channel(udp_decl, ps, ss_udp,
                                        udp_packet_value(), ctx)
        assert (ss_tcp, ss_udp) == (1, 100)
