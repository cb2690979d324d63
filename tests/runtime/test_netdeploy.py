"""Network-based ASP deployment tests (paper §5 extension)."""

import time

from repro.apps.http import run_http_experiment
from repro.jit import pipeline
from repro.jit.pipeline import ProgramCache
from repro.net import Network
from repro.net.packet import tcp_packet
from repro.runtime.netdeploy import (CHUNK_BYTES, RECOVERABLE_REASONS,
                                     DeploymentManager, DeploymentService)

FORWARD = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
           "(OnRemote(network, p); (ps + 1, ss))")

BAD = ("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
       "(OnRemote(network, p); OnRemote(network, p); (ps, ss))")


def managed_net(n_routers=1, bandwidth=100e6):
    net = Network(seed=41)
    admin = net.add_host("admin")
    routers = [net.add_router(f"r{i}") for i in range(n_routers)]
    endpoint = net.add_host("endpoint")
    previous = admin
    for router in routers:
        net.link(previous, router, bandwidth=bandwidth)
        previous = router
    net.link(previous, endpoint, bandwidth=bandwidth)
    net.finalize()
    services = [DeploymentService(net, r) for r in routers]
    manager = DeploymentManager(net, admin)
    return net, admin, routers, endpoint, services, manager


class TestPush:
    def test_single_node_install(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        xfer = manager.push(FORWARD, [routers[0].address])
        net.run(until=1.0)
        assert manager.all_ok(xfer)
        assert services[0].installed == [xfer]

    def test_installed_program_processes_traffic(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        manager.push(FORWARD, [routers[0].address])
        net.run(until=1.0)
        got = []
        endpoint.delivery_taps.append(lambda p: got.append(p))
        admin.ip_send(tcp_packet(admin.address, endpoint.address, 5, 80,
                                 b"x"))
        net.run(until=2.0)
        assert len(got) == 1
        assert routers[0].planp.stats.packets_processed == 1

    def test_multi_node_push(self):
        net, admin, routers, endpoint, services, manager = \
            managed_net(n_routers=3)
        xfer = manager.push(FORWARD,
                            [r.address for r in routers])
        net.run(until=1.0)
        assert manager.all_ok(xfer)
        assert all(s.installed == [xfer] for s in services)

    def test_multi_chunk_source(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        # Pad the program with comments so it spans several chunks.
        padding = "\n".join(f"-- padding line {i} {'x' * 60}"
                            for i in range(40))
        source = padding + "\n" + FORWARD
        assert len(source.encode()) > 2 * CHUNK_BYTES
        xfer = manager.push(source, [routers[0].address])
        net.run(until=1.0)
        assert manager.all_ok(xfer)


class TestRejection:
    def test_unsafe_program_rejected_remotely(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        xfer = manager.push(BAD, [routers[0].address])
        net.run(until=1.0)
        status = manager.status(xfer)[routers[0].address]
        assert status.ok is False
        assert "duplication" in status.detail or "exponential" in \
            status.detail
        assert services[0].rejected
        assert routers[0].planp.loaded is None

    def test_unsafe_program_with_privilege(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        xfer = manager.push(BAD, [routers[0].address], verify=False)
        net.run(until=1.0)
        assert manager.all_ok(xfer)

    def test_syntax_error_rejected(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        xfer = manager.push("channel oops(", [routers[0].address])
        net.run(until=1.0)
        status = manager.status(xfer)[routers[0].address]
        assert status.ok is False

    def test_deeply_nested_program_rejected_not_fatal(self):
        """Ninety parentheses fit one chunk and used to take the event
        loop down with a RecursionError from inside the parser."""
        net, admin, routers, endpoint, services, manager = managed_net()
        bomb = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
                + "(" * 90 + "(ps, ss)" + ")" * 90)
        assert len(bomb.encode()) <= CHUNK_BYTES
        xfer = manager.push(bomb, [routers[0].address])
        net.run(until=1.0)
        status = manager.status(xfer)[routers[0].address]
        assert status.ok is False
        assert "nested deeper" in status.detail
        assert services[0].rejected and not services[0].installed
        assert routers[0].planp.loaded is None
        # The router is still in business.
        follow_up = manager.push(FORWARD, [routers[0].address])
        net.run(until=2.0)
        assert manager.all_ok(follow_up)

    def test_nesting_under_the_limit_installs_from_the_event_loop(self):
        """The limit has to hold where downloads really happen: at the
        bottom of the simulator's, the transport's and the service's
        frames, not just in a bare ``parse()`` call."""
        from repro.lang.parser import MAX_NESTING

        net, admin, routers, endpoint, services, manager = managed_net()
        # the body, its sequence, the pair and its ``+`` are levels too
        depth = MAX_NESTING - 4
        source = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
                  "(OnRemote(network, p); "
                  + "(" * depth + "(ps + 1, ss)" + ")" * depth + ")")
        xfer = manager.push(source, [routers[0].address])
        net.run(until=1.0)
        assert manager.all_ok(xfer)

    def test_non_latin1_source_pushes_as_the_bytes_it_hashes_to(self):
        # Deployment.install takes any str and ProgramCache.digest
        # hashes its UTF-8; the wire must carry the same bytes.  The
        # 3-byte character straddles the first chunk boundary.
        net, admin, routers, endpoint, services, manager = \
            managed_net(n_routers=2)
        head = "-- gateway \u2014 see \u00a72.1 "
        head += "x" * (CHUNK_BYTES - 1 - len(head.encode()))
        source = head + "\u20ac\n" + FORWARD
        data = source.encode()
        assert data[CHUNK_BYTES - 1:CHUNK_BYTES + 2] == "\u20ac".encode()
        xfer = manager.push(source, [r.address for r in routers])
        assert manager.await_converged(xfer) and manager.all_ok(xfer)
        assert [r.planp.current_sha for r in routers] \
            == [ProgramCache.digest(source)] * 2

    def test_commit_without_begin_rejected(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        sock = net.udp(admin).bind()
        replies = []
        sock.on_datagram = lambda d, s, p: replies.append(d)
        sock.sendto(routers[0].address, 9900, b"COMMIT ghost")
        net.run(until=1.0)
        assert replies and replies[0].startswith(b"REJ ghost")

    def test_incomplete_transfer_rejected(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        sock = net.udp(admin).bind()
        replies = []
        sock.on_datagram = lambda d, s, p: replies.append(d)
        sock.sendto(routers[0].address, 9900, b"BEGIN t1 3 closure 1")
        sock.sendto(routers[0].address, 9900, b"CHUNK t1 0\nval")
        sock.sendto(routers[0].address, 9900, b"COMMIT t1")
        net.run(until=1.0)
        # The reliable protocol acks the BEGIN and the chunk before
        # rejecting the incomplete commit.
        assert replies == [b"BEGACK t1", b"CACK t1 0",
                           b"REJ t1 incomplete (1/3)"]


class TestHardening:
    """Malformed control datagrams must never kill the receive path."""

    def raw_socket(self, net, admin):
        sock = net.udp(admin).bind()
        replies = []
        sock.on_datagram = lambda d, s, p: replies.append(d)
        return sock, replies

    def test_garbage_header_with_id_gets_rej(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        sock, replies = self.raw_socket(net, admin)
        sock.sendto(routers[0].address, 9900, b"BEGIN t9 zap closure 1")
        net.run(until=0.5)
        assert replies == [b"REJ t9 malformed"]
        assert services[0].malformed == 1

    def test_bad_chunk_index_rejected_not_fatal(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        sock, replies = self.raw_socket(net, admin)
        sock.sendto(routers[0].address, 9900, b"BEGIN t1 3 closure 1")
        sock.sendto(routers[0].address, 9900, b"CHUNK t1 -1\nxx")
        sock.sendto(routers[0].address, 9900, b"CHUNK t1 nope\nxx")
        sock.sendto(routers[0].address, 9900, b"CHUNK t1 99\nxx")
        net.run(until=0.5)
        assert replies == [b"BEGACK t1", b"REJ t1 malformed",
                           b"REJ t1 malformed", b"REJ t1 malformed"]
        assert services[0].malformed == 3

    def test_undecodable_source_is_a_terminal_rejection(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        sock, replies = self.raw_socket(net, admin)
        sock.sendto(routers[0].address, 9900, b"BEGIN t1 1 source 1")
        sock.sendto(routers[0].address, 9900, b"CHUNK t1 0\nval \xff\xfe")
        sock.sendto(routers[0].address, 9900, b"COMMIT t1")
        sock.sendto(routers[0].address, 9900, b"COMMIT t1")
        net.run(until=0.5)
        # a verdict on the bytes, memoised like any other: the manager
        # must not take it for lost receiver state and send them again
        verdict = b"REJ t1 undecodable source"
        assert replies == [b"BEGACK t1", b"CACK t1 0", verdict, verdict]
        assert not "undecodable source".startswith(RECOVERABLE_REASONS)
        assert services[0].installed == []
        assert services[0].rejected == [("t1", "undecodable source")]
        assert routers[0].planp.loaded is None

    def test_headerless_garbage_is_dropped_silently(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        sock, replies = self.raw_socket(net, admin)
        sock.sendto(routers[0].address, 9900, b"XYZZY")
        sock.sendto(routers[0].address, 9900, b"")
        net.run(until=0.5)
        assert replies == []
        assert services[0].malformed == 2

    def test_node_survives_garbage_then_installs_normally(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        sock, _replies = self.raw_socket(net, admin)
        for payload in (b"BEGIN x y z", b"CHUNK", b"COMMIT a b c",
                        b"\x00\xff garbage \n\n", b"BEGIN t 0 c 1"):
            sock.sendto(routers[0].address, 9900, payload)
        xfer = manager.push(FORWARD, [routers[0].address])
        net.run(until=1.0)
        assert manager.all_ok(xfer)
        assert services[0].installed == [xfer]


class TestReconfiguration:
    def test_push_replaces_previous_program(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        counting = FORWARD
        dropping_udp = (
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(deliver(p); (ps + 10, ss))")
        manager.push(counting, [routers[0].address])
        net.run(until=1.0)
        first = routers[0].planp.loaded
        manager.push(dropping_udp, [routers[0].address])
        net.run(until=2.0)
        assert routers[0].planp.loaded is not first
        assert routers[0].planp.protocol_state == 0  # state reset


class TestHostClock:
    """What a push sends, when it lands and what it installs are a
    function of the simulation alone: a slower host must not simulate a
    different network."""

    @staticmethod
    def slow_host(monkeypatch):
        real = time.perf_counter
        monkeypatch.setattr(time, "perf_counter", lambda: real() * 1000.0)

    @staticmethod
    def cold_push(monkeypatch):
        monkeypatch.setattr(pipeline, "PROGRAM_CACHE", ProgramCache())
        net, admin, routers, endpoint, services, manager = \
            managed_net(bandwidth=1e6)
        xfer = manager.push(FORWARD, [routers[0].address])
        net.run(until=1.0)
        status = manager.status(xfer)[routers[0].address]
        (terminal_at,) = [e.t for e in net.obs.events.filter(kind="deploy")
                          if e.data["action"] == "push-ok"]
        return (net.metrics_snapshot(include_global=False),
                (status.ok, status.cache_hit, terminal_at),
                services[0].installed)

    def test_push_does_not_read_the_host_clock(self, monkeypatch):
        fast = self.cold_push(monkeypatch)
        self.slow_host(monkeypatch)
        assert self.cold_push(monkeypatch) == fast

    def test_asp_install_record_does_not_read_the_host_clock(
            self, monkeypatch):
        def record():
            return run_http_experiment(mode="asp", n_clients=2,
                                       duration=3.0, warmup=1.0).record()

        fast = record()
        self.slow_host(monkeypatch)
        assert record() == fast
