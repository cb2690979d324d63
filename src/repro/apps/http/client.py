"""Closed-loop and open-loop HTTP clients.

"Clients continuously issue requests so as to measure the maximum load
the clustered server can handle" (paper §3.2): each
:class:`HttpClientWorker` keeps exactly one request outstanding —
connect, request, read the full response, repeat — so offered load
scales with the number of workers.

A failed or shed (503) request is retried with jittered exponential
backoff (:class:`~repro.net.overload.Backoff`) up to ``max_retries``
attempts, then abandoned and accounted — the graceful-degradation
contract of DESIGN §14: under overload the client backs off instead of
hammering, and gives up instead of camping.

:class:`OpenLoopClient` issues one independent request per scheduled
arrival regardless of completions — the flash-crowd visitor model,
where offered load is a property of the crowd, not of server capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...net.addresses import HostAddr
from ...net.node import Host
from ...net.overload import Backoff
from ...net.tcp import TcpConnection, TcpError
from ...net.topology import Network
from .server import HTTP_PORT
from .trace import Trace

#: closed loop: a worker issues its next request this long after the
#: last one completed
THINK_TIME_S = 0.0


@dataclass
class CompletedRequest:
    path: str
    bytes_received: int
    started: float
    completed: float
    status: int = 200

    @property
    def latency(self) -> float:
        return self.completed - self.started


class _ResponseReader:
    """One HTTP/1.0 response, fed TCP segments as they arrive.

    :meth:`feed` returns ``(status, body_bytes)`` once the
    ``Content-Length`` body is in, else ``None``.  The header is parsed
    once, when its terminator arrives; body bytes after that are
    counted, not kept.
    """

    __slots__ = ("_head", "_status", "_expected", "_body")

    def __init__(self):
        #: bytes so far, until the header terminator shows up
        self._head: bytearray | None = bytearray()
        self._status = 200
        self._expected: int | None = None
        self._body = 0

    def feed(self, data: bytes) -> tuple[int, int] | None:
        head = self._head
        if head is None:
            self._body += len(data)
        else:
            head.extend(data)
            end = head.find(b"\r\n\r\n")
            if end < 0:
                return None
            lines = bytes(head[:end]).split(b"\r\n")
            parts = lines[0].split(b" ")
            if len(parts) >= 2 and parts[1].isdigit():
                self._status = int(parts[1])
            for line in lines[1:]:
                if line.lower().startswith(b"content-length:"):
                    self._expected = int(line.split(b":", 1)[1])
            self._body = len(head) - end - 4
            self._head = None
        if self._expected is not None and self._body >= self._expected:
            return self._status, self._body
        return None


class HttpClientWorker:
    """One closed-loop request generator."""

    def __init__(self, net: Network, host: Host, server: HostAddr,
                 trace: Trace, *, port: int = HTTP_PORT,
                 trace_offset: int = 0,
                 retry_delay: float = 0.1,
                 retry_ceiling: float = 2.0,
                 max_retries: int = 4,
                 request_timeout: float = 10.0):
        self.net = net
        self.host = host
        self.server = server
        self.port = port
        #: application-level deadline per request: a server that dies
        #: mid-response leaves no TCP timer running, so the client must
        #: give up on its own (as real HTTP clients do)
        self.request_timeout = request_timeout
        #: attempts per trace entry before it is abandoned
        self.max_retries = max_retries
        self.completed: list[CompletedRequest] = []
        self.failures = 0
        self.retries = 0
        self.abandoned = 0
        #: complete 503 responses (each is retried like a failure)
        self.shed_responses = 0
        # Jittered exponential backoff between attempts, from a
        # per-worker entropy stream so retry timing is independent of
        # unrelated traffic.
        self._backoff = Backoff(
            initial=retry_delay, ceiling=max(retry_ceiling, retry_delay),
            entropy=host.sim.entropy(
                f"http:{host.name}:{port}:{trace_offset}"))
        self._stream = trace.request_stream(start=trace_offset)
        self._stopped = False
        self._attempts = 0
        self._entry = None
        self._reader = _ResponseReader()
        self._current_path = ""
        self._started_at = 0.0
        self._conn: TcpConnection | None = None
        self._deadline = None

    def start(self, at: float = 0.0) -> None:
        self.host.sim.at(at, self._next_request, context=self.host.ctx)

    def stop(self) -> None:
        self._stopped = True

    # -- request cycle ----------------------------------------------------------

    def _next_request(self) -> None:
        if self._stopped:
            return
        if self._entry is None:
            self._entry = next(self._stream)
            self._attempts = 0
            self._backoff.reset()
        self._current_path = self._entry.path
        self._started_at = self.host.sim.now
        self._reader = _ResponseReader()
        try:
            conn = self.net.tcp(self.host).connect(self.server, self.port)
        except TcpError:
            self._on_failure()
            return
        conn.on_connected = self._on_connected
        conn.on_data = self._on_data
        conn.on_fail = lambda c: self._on_failure()
        self._conn = conn
        self._deadline = self.host.sim.schedule(self.request_timeout,
                                                self._on_timeout)

    def _on_timeout(self) -> None:
        if self._stopped or self._conn is None:
            return
        conn, self._conn = self._conn, None
        conn.on_fail = None
        conn.abort()
        self._on_failure()

    def _on_connected(self, conn: TcpConnection) -> None:
        request = f"GET {self._current_path} HTTP/1.0\r\n\r\n"
        conn.send(request.encode("latin-1"))

    def _on_data(self, conn: TcpConnection, data: bytes) -> None:
        done = self._reader.feed(data)
        if done is not None:
            self._complete(conn, *done)

    def _complete(self, conn: TcpConnection, status: int,
                  body_bytes: int) -> None:
        self._conn = None
        if self._deadline is not None:
            self._deadline.cancel()
        if status == 503:
            # The server shed us: a complete exchange, but not a
            # success — back off and retry like a failure (without
            # counting a transport failure).
            self.shed_responses += 1
            self.net.obs.metrics.counter(
                "http.client.shed_responses_total").inc()
            conn.close()
            self._retry_or_abandon()
            return
        self.completed.append(CompletedRequest(
            path=self._current_path, bytes_received=body_bytes,
            started=self._started_at, completed=self.host.sim.now,
            status=status))
        self._entry = None
        conn.close()
        self.host.sim.schedule(THINK_TIME_S, self._next_request)

    def _on_failure(self) -> None:
        self.failures += 1
        self._conn = None
        if self._deadline is not None:
            self._deadline.cancel()
        if not self._stopped:
            self._retry_or_abandon()

    def _retry_or_abandon(self) -> None:
        """Jittered-backoff retry of the *same* entry, abandoning it
        after ``max_retries`` attempts — no more silent abandonment on
        connection reset, and no synchronized retry stampedes."""
        self._attempts += 1
        if (self.max_retries is not None
                and self._attempts > self.max_retries):
            self.abandoned += 1
            self.net.obs.metrics.counter(
                "http.client.abandoned_total").inc()
            self._entry = None  # give this one up; move on
            self.host.sim.schedule(self._backoff.initial,
                                   self._next_request)
            return
        self.retries += 1
        self.net.obs.metrics.counter("http.client.retries_total").inc()
        delay = self._backoff.delay()
        self._backoff.bump()
        self.host.sim.schedule(delay, self._next_request)

    # -- reporting ---------------------------------------------------------------

    def throughput(self, window: tuple[float, float]) -> float:
        start, end = window
        count = sum(1 for r in self.completed
                    if start <= r.completed < end)
        return count / (end - start) if end > start else 0.0

    def mean_latency(self, window: tuple[float, float]) -> float:
        start, end = window
        lats = [r.latency for r in self.completed
                if start <= r.completed < end]
        return sum(lats) / len(lats) if lats else 0.0


class OpenLoopClient:
    """Open-loop request generation: one independent connection per
    scheduled arrival, no retries — the flash-crowd visitor, who
    either gets the page, gets shed, or leaves.
    """

    def __init__(self, net: Network, host: Host, server: HostAddr,
                 arrivals, *, port: int = HTTP_PORT,
                 request_timeout: float = 5.0):
        self.net = net
        self.host = host
        self.server = server
        self.port = port
        self.request_timeout = request_timeout
        self.completed: list[CompletedRequest] = []
        self.failures = 0
        self.shed_responses = 0
        self._arrivals = list(arrivals)

    def start(self) -> None:
        for req in self._arrivals:
            self.host.sim.at(req.at,
                             lambda path=req.path: self._fire(path),
                             context=self.host.ctx)

    def _fire(self, path: str) -> None:
        try:
            conn = self.net.tcp(self.host).connect(self.server, self.port)
        except TcpError:
            self.failures += 1
            return
        state = _OneShot(self, path, self.host.sim.now)
        conn.on_connected = state.on_connected
        conn.on_data = state.on_data
        conn.on_fail = state.on_fail
        state.deadline = self.host.sim.schedule(
            self.request_timeout, lambda: state.on_timeout(conn))


class _OneShot:
    """Per-request state of one :class:`OpenLoopClient` arrival."""

    def __init__(self, client: OpenLoopClient, path: str, started: float):
        self.client = client
        self.path = path
        self.started = started
        self.reader = _ResponseReader()
        self.done = False
        self.deadline = None

    def on_connected(self, conn: TcpConnection) -> None:
        conn.send(f"GET {self.path} HTTP/1.0\r\n\r\n".encode("latin-1"))

    def on_data(self, conn: TcpConnection, data: bytes) -> None:
        if self.done:
            return
        done = self.reader.feed(data)
        if done is not None:
            self._finish(conn, *done)

    def _finish(self, conn: TcpConnection, status: int,
                body_bytes: int) -> None:
        self.done = True
        if self.deadline is not None:
            self.deadline.cancel()
        client = self.client
        if status == 503:
            client.shed_responses += 1
        else:
            client.completed.append(CompletedRequest(
                path=self.path, bytes_received=body_bytes,
                started=self.started,
                completed=client.host.sim.now, status=status))
        conn.close()

    def on_fail(self, conn: TcpConnection) -> None:
        if self.done:
            return
        self.done = True
        if self.deadline is not None:
            self.deadline.cancel()
        self.client.failures += 1

    def on_timeout(self, conn: TcpConnection) -> None:
        if self.done:
            return
        self.done = True
        conn.on_fail = None
        conn.abort()
        self.client.failures += 1
