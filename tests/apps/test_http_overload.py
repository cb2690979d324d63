"""HTTP graceful-degradation tests (DESIGN §14).

Server-side: bounded backlog with counted 503 shedding, admission
control, deadline-aware shed on arrival and expiry at dequeue, and the
bounded TCP SYN backlog.  Client-side: the jittered-backoff retry of
the *same* trace entry, 503-as-retryable, and abandonment accounting.
The historical defaults (every knob ``None``) keep the pre-§14
unbounded behavior, which ``test_http.py`` continues to cover.
"""

from repro.apps.http import HttpClientWorker, HttpServer, OpenLoopClient
from repro.apps.http.client import OPEN_LOOP_TIMEOUT_S
from repro.apps.http.server import (BASE_CPU_S, HTTP_PORT, PER_BYTE_CPU_S,
                                    WORKERS)
from repro.apps.http.trace import TimedRequest, Trace, TraceEntry
from repro.net import Network
from repro.net.overload import AdmissionController
from repro.net.packet import tcp_packet
from repro.net.tcp import TcpState


def one_doc_trace(size: int = 1000) -> Trace:
    return Trace(entries=[TraceEntry("/x.html", size)],
                 sizes={"/x.html": size})


def small_net(**server_kw):
    net = Network(seed=9)
    c = net.add_host("c")
    s = net.add_host("s")
    net.link(c, s, bandwidth=100e6)
    net.finalize()
    trace = one_doc_trace()
    server = HttpServer(net, s, trace.sizes, **server_kw)
    return net, c, s, trace, server


#: serial CPU seconds one request for the 1000-byte document costs
CPU_S = BASE_CPU_S + 1000 * PER_BYTE_CPU_S


def arrivals(times) -> list[TimedRequest]:
    return [TimedRequest(at=t, path="/x.html") for t in times]


def burst(n: int) -> list[TimedRequest]:
    """``n`` arrivals 0.1 ms apart: all in before the first request's
    CPU time is over."""
    return arrivals([i * 1e-4 for i in range(n)])


class TestServerShedding:
    def test_backlog_full_sheds_503(self):
        # Every worker busy; a backlog of 1 means the second arrival
        # past the workers finds the queue full.
        net, c, s, trace, server = small_net(max_backlog=1)
        client = OpenLoopClient(net, c, s.address, burst(WORKERS + 3))
        client.start()
        net.run(until=3.0)
        assert server.shed >= 2
        assert client.shed_responses >= 2
        assert len(client.completed) >= 1  # the goods still get through
        assert net.obs.metrics.counter(
            "http.server.shed_total").value == server.shed + server.expired

    def test_shed_emits_overload_event(self):
        net, c, s, trace, server = small_net(max_backlog=1)
        client = OpenLoopClient(net, c, s.address, burst(WORKERS + 3))
        client.start()
        net.run(until=3.0)
        sheds = [e for e in net.obs.events.events
                 if e.kind == "overload"
                 and e.data.get("action") == "shed"]
        assert sheds
        assert {e.data["reason"] for e in sheds} <= {
            "backlog-full", "deadline", "admission"}

    def test_admission_refusal_sheds(self):
        # burst=1 at a 1/s refill: of two simultaneous arrivals exactly
        # one is admitted.
        net, c, s, trace, server = small_net(
            admission=AdmissionController(rate=1.0, floor=1.0,
                                          burst=1.0))
        client = OpenLoopClient(net, c, s.address,
                                arrivals([0.0, 0.001]))
        client.start()
        net.run(until=2.0)
        assert server.admission.refused == 1
        assert server.shed == 1
        assert len(client.completed) == 1

    def test_deadline_shed_on_arrival(self):
        # The CPU is booked one request's time out; a deadline of half
        # that means an arrival right behind it is guaranteed late —
        # shed immediately, not queued.
        net, c, s, trace, server = small_net(request_deadline=CPU_S / 2)
        client = OpenLoopClient(net, c, s.address,
                                arrivals([0.0, CPU_S / 10]))
        client.start()
        net.run(until=3.0)
        assert server.shed == 1
        assert server.expired == 0
        assert len(client.completed) == 1

    def test_deadline_expiry_at_dequeue(self):
        # The workers book WORKERS requests of serial CPU; a deadline
        # just past that lets every later arrival of the burst queue
        # legitimately (the backlog books no CPU), but one worker frees
        # up per CPU_S, so the tail of the backlog waits past the
        # deadline — expired when a worker finally picks it up.
        net, c, s, trace, server = small_net(
            request_deadline=(WORKERS + 1) * CPU_S)
        client = OpenLoopClient(net, c, s.address, burst(3 * WORKERS))
        client.start()
        net.run(until=4.0)
        assert server.expired >= 1
        assert server.requests_served >= 2
        assert net.obs.metrics.counter(
            "http.server.expired_total").value == server.expired

    def test_expired_requests_charge_no_cpu(self):
        net, c, s, trace, server = small_net(
            request_deadline=(WORKERS + 1) * CPU_S)
        client = OpenLoopClient(net, c, s.address, burst(3 * WORKERS))
        client.start()
        net.run(until=4.0)
        served = server.requests_served
        assert server.expired >= 1
        # only the served requests consumed serial CPU time
        assert server._cpu_busy_until <= served * CPU_S + 0.01

    def test_unbounded_defaults_never_shed(self):
        net, c, s, trace, server = small_net()
        client = OpenLoopClient(net, c, s.address, burst(3 * WORKERS))
        client.start()
        net.run(until=5.0)
        assert server.shed == 0
        assert server.expired == 0
        assert len(client.completed) == 3 * WORKERS


class TestSynBacklog:
    def test_syn_queue_overflow_drops(self):
        net = Network(seed=9)
        atk = net.add_host("atk")  # no TCP stack: SYNs never complete
        s = net.add_host("s")
        net.link(atk, s, bandwidth=100e6)
        net.finalize()
        trace = one_doc_trace()
        server = HttpServer(net, s, trace.sizes, syn_backlog=2)
        for k in range(6):
            net.sim.at(0.01 + 0.001 * k,
                       lambda k=k: atk.ip_send(
                           tcp_packet(atk.address, s.address,
                                      10_000 + k, server.port,
                                      syn=True, seq=k)))
        net.run(until=0.5)
        stack = net.tcp(s)
        # 2 half-open slots pinned by the first SYNs, the rest dropped
        assert stack.syn_backlog_drops == 4
        assert stack.stats_dict()["syn_backlog_drops"] == 4

    def test_real_client_survives_bounded_backlog(self):
        net, c, s, trace, server = small_net(syn_backlog=2)
        worker = HttpClientWorker(net, c, s.address, trace)
        worker.start()
        net.run(until=1.0)
        assert worker.completed
        assert net.tcp(s).syn_backlog_drops == 0


class TestClientRetry:
    def test_connect_failure_retries_then_abandons(self):
        # The server host has a TCP stack but nothing listening on 80:
        # every connection attempt is refused.
        net = Network(seed=9)
        c = net.add_host("c")
        s = net.add_host("s")
        net.link(c, s, bandwidth=100e6)
        net.finalize()
        net.tcp(s)  # stack up, port closed -> RST
        worker = HttpClientWorker(net, c, s.address, one_doc_trace(),
                                  max_retries=2)
        worker.start()
        net.run(until=5.0)
        assert not worker.completed
        assert worker.abandoned >= 2
        # per abandoned entry: max_retries retries then one abandonment
        assert worker.retries >= 2 * (worker.abandoned - 1)
        assert worker.failures >= worker.retries
        assert net.obs.metrics.counter(
            "http.client.abandoned_total").value == worker.abandoned
        assert net.obs.metrics.counter(
            "http.client.retries_total").value == worker.retries

    def test_retry_reissues_same_entry(self):
        # Two-entry trace against a dead port, max_retries=1: entries
        # must be abandoned in order, one at a time — the retry re-runs
        # the same entry instead of silently skipping ahead.
        net = Network(seed=9)
        c = net.add_host("c")
        s = net.add_host("s")
        net.link(c, s, bandwidth=100e6)
        net.finalize()
        net.tcp(s)
        trace = Trace(entries=[TraceEntry("/a.html", 10),
                               TraceEntry("/b.html", 10)],
                      sizes={"/a.html": 10, "/b.html": 10})
        worker = HttpClientWorker(net, c, s.address, trace,
                                  max_retries=1)
        paths = []
        original = worker._next_request

        def spy():
            original()
            paths.append(worker._current_path)

        worker._next_request = spy
        worker.start()
        net.run(until=1.0)
        assert paths[0] == "/a.html"
        assert paths[1] == "/a.html"  # the retry, not /b.html
        assert "/b.html" in paths

    def test_shed_response_retried_until_success(self):
        # An admission controller that refuses bursts but refills: the
        # client sees 503s, backs off, and eventually completes.
        net, c, s, trace, server = small_net(
            admission=AdmissionController(rate=2.0, floor=2.0,
                                          burst=1.0))
        workers = [HttpClientWorker(net, c, s.address, trace,
                                    trace_offset=i)
                   for i in range(3)]
        for i, w in enumerate(workers):
            w.start(at=0.001 * i)
        net.run(until=10.0)
        assert sum(w.shed_responses for w in workers) > 0
        assert sum(len(w.completed) for w in workers) > 5
        shed = sum(w.shed_responses for w in workers)
        assert net.obs.metrics.counter(
            "http.client.shed_responses_total").value == shed

    def test_abandonment_moves_to_next_entry(self):
        net, c, s, trace, server = small_net(
            admission=AdmissionController(rate=1.0, floor=1.0,
                                          burst=1.0))
        worker = HttpClientWorker(net, c, s.address, trace,
                                  max_retries=0)
        worker.start()
        net.run(until=5.0)
        # max_retries=0: every 503 is an immediate abandonment, yet the
        # worker keeps making progress on later entries
        assert worker.abandoned > 0
        assert worker.retries == 0
        assert len(worker.completed) > 0

    def test_backoff_spreads_retries(self):
        net = Network(seed=9)
        c = net.add_host("c")
        s = net.add_host("s")
        net.link(c, s, bandwidth=100e6)
        net.finalize()
        net.tcp(s)
        worker = HttpClientWorker(net, c, s.address, one_doc_trace(),
                                  max_retries=6)
        starts = []
        original = worker._next_request

        def spy():
            starts.append(net.sim.now)
            original()

        worker._next_request = spy
        worker.start()
        net.run(until=3.0)
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert len(gaps) >= 4
        # exponential growth: later retry gaps dominate earlier ones
        assert max(gaps[2:]) > gaps[0] * 1.5


class TestOpenLoopFailures:
    """An open-loop arrival that never gets its page: the connection
    fails, or the server never answers and the client's deadline ends
    it.  Either way it counts once as a failure and never completes."""

    @staticmethod
    def one_arrival(listen=None):
        net = Network(seed=9)
        c = net.add_host("c")
        s = net.add_host("s")
        net.link(c, s, bandwidth=100e6)
        net.finalize()
        server_stack = net.tcp(s)  # a TCP endpoint either way
        if listen is not None:
            server_stack.listen(HTTP_PORT, listen)
        client = OpenLoopClient(net, c, s.address, arrivals([0.1]))
        stack = net.tcp(c)
        conns = []
        connect = stack.connect

        def recording_connect(dst, dst_port):
            conns.append(connect(dst, dst_port))
            return conns[-1]

        stack.connect = recording_connect
        client.start()
        return net, client, conns

    def test_refused_connection_fails_once_and_cancels_the_deadline(self):
        # nothing listens on the port: the server's RST fails the
        # connect within a round trip
        net, client, conns = self.one_arrival()
        net.run(until=1.0)
        (conn,) = conns
        assert conn.state is TcpState.CLOSED
        assert client.failures == 1
        assert client.completed == [] and client.shed_responses == 0
        # the deadline went with the failure: nothing is left to fire
        assert net.sim.pending_events == 0
        net.run(until=OPEN_LOOP_TIMEOUT_S + 1.0)
        assert client.failures == 1

    def test_silent_server_times_out_once(self):
        accepted = []
        net, client, conns = self.one_arrival(listen=accepted.append)
        net.run(until=OPEN_LOOP_TIMEOUT_S)
        (conn,) = conns
        assert conn.state is TcpState.ESTABLISHED  # asked, no answer yet
        assert client.failures == 0
        net.run(until=OPEN_LOOP_TIMEOUT_S + 1.0)
        # the deadline aborted the connection: a RST reached the server,
        # and the abort's own failure callback did not count again
        assert conn.state is TcpState.CLOSED
        assert conn.on_fail is None
        (server_side,) = accepted
        assert server_side.state is TcpState.CLOSED
        assert client.failures == 1
        assert client.completed == [] and client.shed_responses == 0
