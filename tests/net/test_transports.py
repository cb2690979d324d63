"""UDP and TCP transport tests."""

import pytest

from repro.net import Network
from repro.net.tcp import TcpState


def pair(loss_rate=0.0, **link_kwargs):
    net = Network(seed=9)
    a = net.add_host("a")
    b = net.add_host("b")
    net.link(a, b, **link_kwargs).loss_rate = loss_rate
    net.finalize()
    return net, a, b


class TestUdp:
    def test_datagram_delivery(self):
        net, a, b = pair()
        sock_b = net.udp(b).bind(5000)
        got = []
        sock_b.on_datagram = lambda d, src, sp: got.append((d, str(src),
                                                            sp))
        sock_a = net.udp(a).bind(6000)
        sock_a.sendto(b.address, 5000, b"ping")
        net.run()
        assert got == [(b"ping", str(a.address), 6000)]

    def test_unbound_port_discards(self):
        net, a, b = pair()
        net.udp(b)  # stack exists, nothing bound
        sock_a = net.udp(a).bind()
        sock_a.sendto(b.address, 1234, b"void")
        net.run()
        assert net.udp(b).datagrams_in == 0

    def test_ephemeral_ports_unique(self):
        net, a, _b = pair()
        stack = net.udp(a)
        ports = {stack.bind().port for _ in range(10)}
        assert len(ports) == 10

    def test_bind_conflict(self):
        net, a, _b = pair()
        net.udp(a).bind(7)
        with pytest.raises(ValueError):
            net.udp(a).bind(7)

    def test_close_releases_port(self):
        net, a, _b = pair()
        sock = net.udp(a).bind(7)
        sock.close()
        net.udp(a).bind(7)  # no error

    def test_buffered_when_no_callback(self):
        net, a, b = pair()
        sock_b = net.udp(b).bind(5000)
        net.udp(a).bind(6000).sendto(b.address, 5000, b"x")
        net.run()
        assert len(sock_b.received) == 1


class TestTcpBasics:
    def test_connect_and_transfer(self):
        net, a, b = pair()
        received = bytearray()

        def on_accept(conn):
            conn.on_data = lambda c, d: received.extend(d)

        net.tcp(b).listen(80, on_accept)
        conn = net.tcp(a).connect(b.address, 80)
        conn.on_connected = lambda c: c.send(b"hello world")
        net.run(until=5.0)
        assert bytes(received) == b"hello world"
        assert conn.state is TcpState.ESTABLISHED

    def test_large_transfer_segments(self):
        net, a, b = pair()
        payload = bytes(range(256)) * 250  # 64 kB, many MSS segments
        received = bytearray()

        def on_accept(conn):
            conn.on_data = lambda c, d: received.extend(d)

        net.tcp(b).listen(80, on_accept)
        conn = net.tcp(a).connect(b.address, 80)
        conn.on_connected = lambda c: (c.send(payload), c.close())
        net.run(until=10.0)
        assert bytes(received) == payload

    def test_bidirectional(self):
        net, a, b = pair()
        at_a, at_b = bytearray(), bytearray()

        def on_accept(conn):
            conn.on_data = lambda c, d: (at_b.extend(d), c.send(b"pong"))

        net.tcp(b).listen(80, on_accept)
        conn = net.tcp(a).connect(b.address, 80)
        conn.on_data = lambda c, d: at_a.extend(d)
        conn.on_connected = lambda c: c.send(b"ping")
        net.run(until=5.0)
        assert bytes(at_b) == b"ping"
        assert bytes(at_a) == b"pong"

    def test_connect_to_closed_port_fails(self):
        net, a, b = pair()
        net.tcp(b)  # stack, no listener
        failures = []
        conn = net.tcp(a).connect(b.address, 81)
        conn.on_fail = lambda c: failures.append(c)
        net.run(until=5.0)
        assert failures
        assert conn.state is TcpState.CLOSED

    def test_close_handshake_frees_state(self):
        net, a, b = pair()

        def on_accept(conn):
            conn.on_close = lambda c: c.close()

        net.tcp(b).listen(80, on_accept)
        conn = net.tcp(a).connect(b.address, 80)
        conn.on_connected = lambda c: c.close()
        net.run(until=10.0)
        assert net.tcp(a).open_connections == 0
        assert net.tcp(b).open_connections == 0

    def test_send_after_close_rejected(self):
        net, a, b = pair()
        net.tcp(b).listen(80, lambda c: None)
        conn = net.tcp(a).connect(b.address, 80)
        errors = []

        def on_connected(c):
            c.close()
            try:
                c.send(b"late")
            except Exception as err:
                errors.append(err)

        conn.on_connected = on_connected
        net.run(until=5.0)
        assert errors

    def test_many_parallel_connections(self):
        net, a, b = pair()
        done = []

        def on_accept(conn):
            conn.on_data = lambda c, d: (c.send(d), c.close())

        net.tcp(b).listen(80, on_accept)
        for i in range(20):
            conn = net.tcp(a).connect(b.address, 80)
            conn.on_connected = lambda c: c.send(b"req")
            conn.on_data = lambda c, d: done.append(d)
        net.run(until=10.0)
        assert len(done) == 20


class TestTcpLoss:
    @pytest.mark.parametrize("loss", [0.02, 0.10, 0.25])
    def test_transfer_survives_loss(self, loss):
        net, a, b = pair(loss_rate=loss)
        payload = b"q" * 30_000
        received = bytearray()
        closed = []

        def on_accept(conn):
            conn.on_data = lambda c, d: received.extend(d)
            conn.on_close = lambda c: closed.append("server")

        net.tcp(b).listen(80, on_accept)
        conn = net.tcp(a).connect(b.address, 80)
        conn.on_connected = lambda c: (c.send(payload), c.close())
        net.run(until=120.0)
        assert bytes(received) == payload

    def test_retransmissions_counted(self):
        net, a, b = pair(loss_rate=0.2)
        received = bytearray()

        def on_accept(conn):
            conn.on_data = lambda c, d: received.extend(d)

        net.tcp(b).listen(80, on_accept)
        conn = net.tcp(a).connect(b.address, 80)
        conn.on_connected = lambda c: c.send(b"r" * 20_000)
        net.run(until=120.0)
        assert bytes(received) == b"r" * 20_000
        assert net.tcp(a).retransmissions > 0

    def test_total_loss_gives_up(self):
        net, a, b = pair(loss_rate=1.0)
        failures = []
        conn = net.tcp(a).connect(b.address, 80)
        conn.on_fail = lambda c: failures.append(c)
        net.run(until=120.0)
        assert failures
        assert net.tcp(a).open_connections == 0

    def test_in_order_delivery_despite_reordering_loss(self):
        net, a, b = pair(loss_rate=0.15)
        chunks = []

        def on_accept(conn):
            conn.on_data = lambda c, d: chunks.append(bytes(d))

        net.tcp(b).listen(80, on_accept)
        payload = bytes(i % 256 for i in range(50_000))
        conn = net.tcp(a).connect(b.address, 80)
        conn.on_connected = lambda c: c.send(payload)
        net.run(until=120.0)
        assert b"".join(chunks) == payload  # cumulative, ordered
