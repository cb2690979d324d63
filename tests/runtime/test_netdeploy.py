"""Network-based ASP deployment tests (paper §5 extension)."""

import time

import pytest

from repro.apps.http import run_http_experiment
from repro.jit import BACKENDS, pipeline
from repro.jit.pipeline import DEFAULT_BACKEND, ProgramCache
from repro.net import Network
from repro.net.packet import tcp_packet
from repro.net.tcp import MSS
from repro.runtime.netdeploy import (DEPLOY_PORT, MAX_HEADER,
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


def raw_push(net, admin, router, payload, *, close=False):
    """One hand-made connection to the service; what it answers lands in
    the returned connection's ``received_data``."""
    conn = net.tcp(admin).connect(router.address, DEPLOY_PORT)
    conn.on_close = lambda c: c.close()  # hang up when it does
    conn.send(payload)
    if close:
        conn.close()
    return conn


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
        # The push's own closing segments, addressed to the router,
        # crossed its new program too; count from here.
        processed = routers[0].planp.stats.packets_processed
        got = []
        endpoint.delivery_taps.append(lambda p: got.append(p))
        admin.ip_send(tcp_packet(admin.address, endpoint.address, 5, 80,
                                 b"x"))
        net.run(until=2.0)
        assert len(got) == 1
        assert routers[0].planp.stats.packets_processed == processed + 1

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
        # Pad the program with comments so it spans several segments.
        padding = "\n".join(f"-- padding line {i} {'x' * 60}"
                            for i in range(40))
        source = padding + "\n" + FORWARD
        assert len(source.encode()) > 2 * MSS
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_privileged_program_whose_val_raises_is_refused(self, backend):
        net, admin, routers, endpoint, services, manager = managed_net()
        source = (b"val z : int = 0\nval k : int = 10 / z\n"
                  + FORWARD.encode())
        conn = raw_push(net, admin, routers[0], b"PUSH t1 %d %s 0\n%s"
                        % (len(source), backend.encode(), source))
        net.run(until=1.0)
        assert bytes(conn.received_data) == \
            b"REJ t1 division by zero"
        assert routers[0].planp.loaded is None
        # traffic through the router takes standard forwarding
        got = []
        endpoint.delivery_taps.append(got.append)
        for _ in range(2):
            admin.ip_send(tcp_packet(admin.address, endpoint.address,
                                     1, 80, b"x"))
        net.run(until=2.0)
        assert len(got) == 2

    def test_syntax_error_rejected(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        xfer = manager.push("channel oops(", [routers[0].address])
        net.run(until=1.0)
        status = manager.status(xfer)[routers[0].address]
        assert status.ok is False

    def test_deeply_nested_program_rejected_not_fatal(self):
        """Ninety parentheses fit one segment and used to take the event
        loop down with a RecursionError from inside the parser."""
        net, admin, routers, endpoint, services, manager = managed_net()
        bomb = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
                + "(" * 90 + "(ps, ss)" + ")" * 90)
        assert len(bomb.encode()) <= MSS
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
        # 3-byte character straddles the first segment boundary.
        net, admin, routers, endpoint, services, manager = \
            managed_net(n_routers=2)
        header = f"PUSH asp1 1000 {DEFAULT_BACKEND} 1\n".encode()
        head = "-- gateway \u2014 see \u00a72.1 "
        head += "x" * (MSS - 1 - len(header) - len(head.encode()))
        source = head + "\u20ac\n" + FORWARD
        stream = header.replace(b"1000", b"%d" % len(source.encode())) \
            + source.encode()
        assert stream[MSS - 1:MSS + 2] == "\u20ac".encode()
        xfer = manager.push(source, [r.address for r in routers])
        assert manager.await_converged(xfer) and manager.all_ok(xfer)
        assert [r.planp.current_sha for r in routers] \
            == [ProgramCache.digest(source)] * 2

    def test_incomplete_transfer_rejected(self):
        # Closed before its declared byte count: nothing is installed.
        net, admin, routers, endpoint, services, manager = managed_net()
        conn = raw_push(net, admin, routers[0],
                        b"PUSH t1 30 closure 1\nval", close=True)
        net.run(until=2.0)
        assert bytes(conn.received_data) == b"REJ t1 incomplete (3/30)"
        assert services[0].installed == services[0].rejected == []
        assert services[0].malformed == 0
        assert routers[0].planp.loaded is None


class TestHardening:
    """Malformed control connections must never kill the receive path."""

    def test_garbage_header_with_id_gets_rej(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        conn = raw_push(net, admin, routers[0], b"PUSH t9 zap closure 1\n")
        net.run(until=2.0)
        assert bytes(conn.received_data) == b"REJ t9 malformed"
        assert services[0].malformed == 1

    def test_bad_byte_count_rejected_not_fatal(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        unsafe = BAD.encode()
        conns = [raw_push(net, admin, routers[0], payload)
                 for payload in (b"PUSH t1 -1 closure 1\nxx",
                                 b"PUSH t2 nope closure 1\nxx",
                                 b"PUSH t3 0 closure 1\n",
                                 b"PUSH t4 1 closure 1\nxx",
                                 # verify is 0 or 1: "yes" must not
                                 # install an unverified program
                                 b"PUSH t5 %d closure yes\n%s"
                                 % (len(unsafe), unsafe))]
        net.run(until=2.0)
        assert [bytes(c.received_data) for c in conns] == [
            b"REJ t%d malformed" % i for i in (1, 2, 3, 4, 5)]
        assert services[0].malformed == 5
        assert routers[0].planp.loaded is None
        assert net.tcp(routers[0]).open_connections == 0

    def test_undecodable_source_is_a_terminal_rejection(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        conn = raw_push(net, admin, routers[0],
                        b"PUSH t1 6 source 1\nval \xff\xfe")
        net.run(until=2.0)
        # a verdict on the bytes, like any analysis verdict: a re-push
        # would carry the same bytes
        assert bytes(conn.received_data) == b"REJ t1 undecodable source"
        assert services[0].installed == []
        assert services[0].rejected == [("t1", "undecodable source")]
        assert routers[0].planp.loaded is None

    def test_headerless_garbage_is_dropped_silently(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        conns = [raw_push(net, admin, routers[0], b"XYZZY\n"),
                 raw_push(net, admin, routers[0], b"", close=True),
                 raw_push(net, admin, routers[0], b"x" * (MAX_HEADER + 1))]
        net.run(until=2.0)
        assert [bytes(c.received_data) for c in conns] == [b""] * 3
        assert services[0].malformed == 3
        assert net.tcp(routers[0]).open_connections == 0

    def test_node_survives_garbage_then_installs_normally(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        for payload in (b"PUSH x y z\n", b"PUSH\n", b"OK a b c\n",
                        b"\x00\xff garbage \n\n", b"PUSH t 0 c 1\n"):
            raw_push(net, admin, routers[0], payload, close=True)
        xfer = manager.push(FORWARD, [routers[0].address])
        net.run(until=1.0)
        assert manager.all_ok(xfer)
        assert services[0].installed == [xfer]


class TestReconfiguration:
    def test_push_replaces_previous_program(self):
        net, admin, routers, endpoint, services, manager = managed_net()
        counting = FORWARD
        # A UDP channel: the push's own TCP segments, which still reach
        # the router after the install, leave its fresh state alone.
        dropping_udp = (
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is "
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
        return (net.obs.snapshot(),
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


#: installs unverified, then refuses on about half of its reinstalls:
#: its second val divides by a draw from the node's stream
FLAKY_VAL = """
val d : int = random(2)
val x : int = 10 / d
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + x, ss))
"""


class TestRestartRefusal:
    def test_a_restart_that_cannot_reinstall_is_counted_and_evented(self):
        net = Network(seed=0)
        a, r, b = net.add_host("a"), net.add_router("r"), net.add_host("b")
        net.link(a, r)
        net.link(r, b)
        net.finalize()
        service = DeploymentService(net, r)
        r.planp.install(FLAKY_VAL, verify=False)
        sha = ProgramCache.digest(FLAKY_VAL)
        for _ in range(6):
            net.faults.crash(r)
            net.faults.restart(r)
            # the manifest survives either way: the next restart retries
            assert r.planp.manifest.source_sha == sha
        # every restart either runs the program again or says why not
        refused = [(sha, "division by zero")] * (6 - len(service.reinstalled))
        assert service.rejected == refused and refused
        assert net.obs.snapshot()["deploy.service.r.rejected"] \
            == len(refused)
        events = [e.data for e in net.obs.events.filter(kind="deploy")
                  if e.data.get("action") == "reject"]
        assert events == [{"action": "reject", "sha": sha,
                           "reason": "division by zero"}] * len(refused)
