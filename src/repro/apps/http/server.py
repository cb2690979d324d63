"""A simulated HTTP/1.0 server (the Apache 1.2.6 stand-in).

Serves ``GET`` requests over the TCP substrate.  Request processing
costs simulated CPU time (parse + per-byte copy cost); the CPU is a
single serial resource, so throughput saturates at roughly
``1 / service_time`` requests per second no matter how many connections
are open — which is what makes the figure 8 saturation plateaus
meaningful.  ``workers`` bounds concurrently accepted requests, like
Apache's 5-10 child processes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ...net.node import Host
from ...net.overload import AdmissionController
from ...net.tcp import TcpConnection, TcpError
from ...net.topology import Network

HTTP_PORT = 80

#: CPU cost model: fixed per-request cost plus per-byte copy cost.
BASE_CPU_S = 0.004
PER_BYTE_CPU_S = 2.0e-7


@dataclass
class ServedRequest:
    path: str
    size: int
    arrived: float
    completed: float


class HttpServer:
    """One physical web server."""

    def __init__(self, net: Network, host: Host,
                 sizes: dict[str, int], *, port: int = HTTP_PORT,
                 workers: int = 8, base_cpu_s: float = BASE_CPU_S,
                 max_backlog: int | None = None,
                 request_deadline: float | None = None,
                 admission: AdmissionController | None = None,
                 syn_backlog: int | None = None):
        self.net = net
        self.host = host
        self.sizes = sizes
        self.port = port
        self.workers = workers
        self.base_cpu_s = base_cpu_s
        #: graceful degradation (DESIGN §14): a ``None`` for each knob
        #: keeps the historical unbounded/deadline-free behavior
        self.max_backlog = max_backlog
        self.request_deadline = request_deadline
        self.admission = admission

        self.requests_served = 0
        self.bytes_served = 0
        self.errors = 0
        #: 503s sent on arrival: admission refusal, full backlog, or a
        #: queue already guaranteed to blow the deadline
        self.shed = 0
        #: 503s sent at dequeue: the deadline passed while queued
        self.expired = 0
        self.served: list[ServedRequest] = []
        self._cpu_busy_until = 0.0
        self._active_workers = 0
        self._backlog: deque[tuple[TcpConnection, str, float]] = deque()
        self._buffers: dict[int, bytearray] = {}

        net.tcp(host).listen(port, self._on_accept,
                             backlog=syn_backlog)

    # -- connection handling ---------------------------------------------------

    def _on_accept(self, conn: TcpConnection) -> None:
        self._buffers[id(conn)] = bytearray()
        conn.on_data = self._on_data
        conn.on_close = self._on_close

    def _on_close(self, conn: TcpConnection) -> None:
        self._buffers.pop(id(conn), None)

    def _on_data(self, conn: TcpConnection, data: bytes) -> None:
        buffer = self._buffers.setdefault(id(conn), bytearray())
        buffer.extend(data)
        if b"\r\n\r\n" not in buffer:
            return
        request, _, _rest = bytes(buffer).partition(b"\r\n\r\n")
        self._buffers[id(conn)] = bytearray()
        path = self._parse_path(request)
        if path is None:
            self.errors += 1
            self._respond(conn, 400, b"bad request")
            return
        self._enqueue(conn, path)

    @staticmethod
    def _parse_path(request: bytes) -> str | None:
        try:
            line = request.split(b"\r\n", 1)[0].decode("latin-1")
            method, path, _version = line.split(" ", 2)
        except ValueError:
            return None
        if method != "GET":
            return None
        return path

    # -- the CPU model -----------------------------------------------------------

    def _enqueue(self, conn: TcpConnection, path: str) -> None:
        now = self.host.sim.now
        if self.admission is not None and not self.admission.admit(now):
            self._shed(conn, "admission")
            return
        if (self.max_backlog is not None
                and len(self._backlog) >= self.max_backlog):
            if self.admission is not None:
                self.admission.on_overload()
            self._shed(conn, "backlog-full")
            return
        if self.request_deadline is not None:
            # Deadline-aware shedding: when the CPU work already queued
            # guarantees this request would miss its deadline, a fast
            # 503 now beats a slow 503 later (the client backs off
            # immediately instead of camping in the queue).
            if self._cpu_busy_until - now > self.request_deadline:
                if self.admission is not None:
                    self.admission.on_overload()
                self._shed(conn, "deadline")
                return
        self._backlog.append((conn, path, now))
        self._maybe_start_worker()

    def _maybe_start_worker(self) -> None:
        while self._active_workers < self.workers and self._backlog:
            conn, path, arrived = self._backlog.popleft()
            now = self.host.sim.now
            if (self.request_deadline is not None
                    and now - arrived > self.request_deadline):
                # Expired while queued: answer cheaply, charge no CPU.
                self._expire(conn)
                continue
            self._active_workers += 1
            size = self.sizes.get(path, 0)
            cpu = self.base_cpu_s + size * PER_BYTE_CPU_S
            # The CPU is serial: this request's work starts when the
            # CPU frees up, regardless of worker concurrency.
            start = max(now, self._cpu_busy_until)
            self._cpu_busy_until = start + cpu
            done_at = self._cpu_busy_until

            def finish(conn=conn, path=path, size=size,
                       arrived=arrived) -> None:
                self._active_workers -= 1
                self._finish_request(conn, path, size, arrived)
                if self.admission is not None:
                    self.admission.on_healthy()
                self._maybe_start_worker()

            self.host.sim.at(done_at, finish)
            return

    # -- load shedding -----------------------------------------------------------

    def _shed(self, conn: TcpConnection, reason: str) -> None:
        self.shed += 1
        self.net.obs.metrics.counter("http.server.shed_total").inc()
        self.net.obs.events.emit("overload", node=self.host.name,
                                 where="http-server", action="shed",
                                 reason=reason)
        self._respond(conn, 503, b"overloaded")

    def _expire(self, conn: TcpConnection) -> None:
        self.expired += 1
        self.net.obs.metrics.counter("http.server.expired_total").inc()
        self.net.obs.events.emit("overload", node=self.host.name,
                                 where="http-server", action="expired")
        self._respond(conn, 503, b"expired")

    def _finish_request(self, conn: TcpConnection, path: str, size: int,
                        arrived: float) -> None:
        if path not in self.sizes:
            self.errors += 1
            self._respond(conn, 404, b"not found")
            return
        body = self._body_for(path, size)
        headers = (f"HTTP/1.0 200 OK\r\nContent-Length: {len(body)}\r\n"
                   f"\r\n").encode("latin-1")
        try:
            conn.send(headers + body)
            conn.close()
        except TcpError as err:
            # The client went away (reset, timeout) before the response
            # could be written — an expected peer failure, not a server
            # bug; any other exception propagates.
            self._count_error(path, err)
            return
        self.requests_served += 1
        self.bytes_served += len(body)
        self.served.append(ServedRequest(path=path, size=size,
                                         arrived=arrived,
                                         completed=self.host.sim.now))

    @staticmethod
    def _body_for(path: str, size: int) -> bytes:
        stamp = path.encode("latin-1")
        reps = size // max(len(stamp), 1) + 1
        return (stamp * reps)[:size]

    def _respond(self, conn: TcpConnection, code: int,
                 message: bytes) -> None:
        reason = {400: "Bad Request", 404: "Not Found",
                  503: "Service Unavailable"}.get(code, "Error")
        headers = (f"HTTP/1.0 {code} {reason}\r\nContent-Length: "
                   f"{len(message)}\r\n\r\n").encode("latin-1")
        try:
            conn.send(headers + message)
            conn.close()
        except TcpError as err:
            self._count_error(f"<{code}>", err)

    def _count_error(self, path: str, err: TcpError) -> None:
        self.errors += 1
        self.net.obs.metrics.counter("http.errors_total").inc()
        self.net.obs.events.emit("error", node=self.host.name,
                                 where="http-server", path=path,
                                 detail=str(err))

    def throughput(self, window: tuple[float, float]) -> float:
        """Requests completed per second inside a time window."""
        start, end = window
        count = sum(1 for r in self.served if start <= r.completed < end)
        return count / (end - start) if end > start else 0.0
