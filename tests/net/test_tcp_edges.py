"""TCP edge-case tests beyond the happy paths."""

import pytest

from repro.net import Network
from repro.net.tcp import TcpError, TcpStack, TcpState


def pair(loss_rate=0.0):
    net = Network(seed=77)
    a = net.add_host("a")
    b = net.add_host("b")
    net.link(a, b).loss_rate = loss_rate
    net.finalize()
    return net, a, b


class TestHandshakeEdges:
    def test_duplicate_syn_gets_one_connection(self):
        """A retransmitted SYN (lost SYN-ACK) must not fork state."""
        net, a, b = pair(loss_rate=0.4)
        accepted = []
        net.tcp(b).listen(80, lambda c: accepted.append(c))
        conn = net.tcp(a).connect(b.address, 80)
        done = []
        conn.on_connected = lambda c: done.append(c)
        net.run(until=30.0)
        if done:  # if the handshake survived the loss at all
            assert len(accepted) == 1

    def test_rst_to_half_open_listener_side(self):
        net, a, b = pair()
        accepted = []
        net.tcp(b).listen(80, lambda c: accepted.append(c))
        conn = net.tcp(a).connect(b.address, 80)
        conn.on_connected = lambda c: c.abort()
        net.run(until=5.0)
        assert accepted[0].state is TcpState.CLOSED
        assert net.tcp(b).open_connections == 0

    def test_listener_close_stops_accepting(self):
        net, a, b = pair()
        listener = net.tcp(b).listen(80, lambda c: None)
        listener.close()
        failures = []
        conn = net.tcp(a).connect(b.address, 80)
        conn.on_fail = lambda c: failures.append(c)
        net.run(until=5.0)
        assert failures

    def test_connect_duplicate_tuple_rejected(self):
        # a listens on the port its first ephemeral allocation will
        # take, and b connects to it from that same number (b's first
        # ephemeral port): a already owns the tuple its own connect
        # back to b would use
        net, a, b = pair()
        port = TcpStack.EPHEMERAL_BASE + 1
        net.tcp(a).listen(port, lambda c: None)
        net.tcp(b).connect(a.address, port)
        net.run(until=1.0)
        with pytest.raises(TcpError):
            net.tcp(a).connect(b.address, port)


class TestDataEdges:
    def test_empty_send_is_harmless(self):
        net, a, b = pair()
        received = bytearray()

        def on_accept(conn):
            conn.on_data = lambda c, d: received.extend(d)

        net.tcp(b).listen(80, on_accept)
        conn = net.tcp(a).connect(b.address, 80)
        conn.on_connected = lambda c: (c.send(b""), c.send(b"after"))
        net.run(until=5.0)
        assert bytes(received) == b"after"

    def test_exactly_one_mss(self):
        from repro.net.tcp import MSS

        net, a, b = pair()
        received = bytearray()

        def on_accept(conn):
            conn.on_data = lambda c, d: received.extend(d)

        net.tcp(b).listen(80, on_accept)
        conn = net.tcp(a).connect(b.address, 80)
        payload = b"m" * MSS
        conn.on_connected = lambda c: c.send(payload)
        net.run(until=5.0)
        assert bytes(received) == payload

    def test_window_larger_than_transfer(self):
        net, a, b = pair()
        received = bytearray()

        def on_accept(conn):
            conn.on_data = lambda c, d: received.extend(d)

        net.tcp(b).listen(80, on_accept)
        conn = net.tcp(a).connect(b.address, 80)
        conn.window_bytes = 10**9
        conn.on_connected = lambda c: c.send(b"w" * 100_000)
        net.run(until=30.0)
        assert len(received) == 100_000

    def test_interleaved_sends_keep_order(self):
        net, a, b = pair()
        received = bytearray()

        def on_accept(conn):
            conn.on_data = lambda c, d: received.extend(d)

        net.tcp(b).listen(80, on_accept)
        conn = net.tcp(a).connect(b.address, 80)

        def start(c):
            for i in range(10):
                c.send(bytes([i]) * 100)

        conn.on_connected = start
        net.run(until=10.0)
        expected = b"".join(bytes([i]) * 100 for i in range(10))
        assert bytes(received) == expected


class TestCloseEdges:
    def test_double_close_is_idempotent(self):
        net, a, b = pair()
        net.tcp(b).listen(80, lambda c: None)
        conn = net.tcp(a).connect(b.address, 80)
        conn.on_connected = lambda c: (c.close(), c.close())
        net.run(until=5.0)

    def test_send_queued_before_close_still_delivered(self):
        net, a, b = pair()
        received = bytearray()

        def on_accept(conn):
            conn.on_data = lambda c, d: received.extend(d)

        net.tcp(b).listen(80, on_accept)
        conn = net.tcp(a).connect(b.address, 80)
        conn.on_connected = lambda c: (c.send(b"x" * 50_000), c.close())
        net.run(until=30.0)
        assert len(received) == 50_000

    def test_simultaneous_close(self):
        net, a, b = pair()
        server_conns = []

        def on_accept(conn):
            server_conns.append(conn)
            conn.on_data = lambda c, d: None

        net.tcp(b).listen(80, on_accept)
        conn = net.tcp(a).connect(b.address, 80)

        def both_close(c):
            c.close()
            server_conns[0].close()

        conn.on_connected = both_close
        net.run(until=10.0)
        assert net.tcp(a).open_connections == 0
        assert net.tcp(b).open_connections == 0

    def test_connections_die_with_their_node(self):
        """``Node.crash`` drops volatile state, connections included:
        after a restart the peer's next segment draws a RST instead of
        reaching the pre-crash connection."""
        net, a, b = pair()
        received = bytearray()

        def on_accept(conn):
            conn.on_data = lambda c, d: received.extend(d)

        net.tcp(b).listen(80, on_accept)
        conn = net.tcp(a).connect(b.address, 80)
        failed = []
        conn.on_fail = lambda c: failed.append(net.now)
        net.run(until=1.0)
        assert conn.established
        net.faults.crash(b)
        net.faults.restart(b)
        assert net.tcp(b).open_connections == 0
        conn.send(b"after-restart")
        net.run(until=5.0)
        assert received == b""
        assert failed and conn.state is TcpState.CLOSED
        assert net.tcp(a).open_connections == 0

    def test_no_callback_fires_on_a_down_node(self):
        net, a, b = pair()
        calls = []
        net.tcp(a).listen(80, lambda c: None)
        conn = net.tcp(b).connect(a.address, 80)
        conn.on_close = lambda c: calls.append("close")
        conn.on_fail = lambda c: calls.append("fail")
        net.run(until=1.0)
        conn.send(b"x" * 5000)  # unacked when the node dies
        net.faults.crash(b)
        net.run(until=30.0)  # past every retransmission b would make
        assert conn.state is TcpState.CLOSED and calls == []
        assert net.sim.pending_events == 0

    def test_abort_without_peer(self):
        net, a, b = pair()
        conn = net.tcp(a).connect(b.address, 80)
        conn.abort()
        net.run(until=2.0)
        assert conn.state is TcpState.CLOSED
        assert net.tcp(a).open_connections == 0
