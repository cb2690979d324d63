"""Reliable ASP deployment over the network itself (paper §5: "protocol
management functionalities, such as ASP deployment").

A :class:`DeploymentService` runs on every managed node and listens on a
TCP control port; a :class:`DeploymentManager` pushes program source to
any set of nodes.  The receiving node runs the full download path —
parse, type check, the four analyses, JIT — and answers acceptance
(saying whether the program cache served it) or rejection (with the
failing analysis), exactly the late-checking deployment story of §2.1.

Ordered, reliable delivery is :mod:`repro.net.tcp`'s job — the
transport the paper's HTTP gateway runs on (Burgy et al. argue that
robustness belongs in the messaging layer; here that layer already
exists).  What this module adds is about deployment, not transport:

* **Terminal deadlines.**  ``RetryPolicy.deadline`` sim-seconds after a
  (re-)push, a target still pending has its connection aborted and
  fails with reason ``timeout`` — or ``unreachable`` when the manager
  no longer has a route to it.  A target nobody listens on answers the
  SYN with a RST and fails at once with ``refused``.  No push remains
  ``ok=None`` past its deadline; poll with
  :meth:`DeploymentManager.await_converged`.
* **Reconnect after a restart.**  A crashed node's connections die with
  it (:meth:`~repro.net.node.Node.crash`), so once it is back the
  manager's next retransmission draws a RST.  A connection that fails
  after it was established is reopened and the push sent again
  (``PushStatus.restarts``); :meth:`DeploymentManager.repush` re-pushes
  a decided transfer to targets that rejoined later.  Installs go
  through the content-addressed program cache, so repeats re-verify and
  re-compile at cache speed.
* **One record of what should run.**  The node's packet layer keeps
  the last program it adopted and has not since removed
  (:attr:`PlanPLayer.manifest`), across crashes; on restart the service
  re-installs exactly that program through the warm program cache — so
  a rolled-back, quarantined or uninstalled program stays gone.

Wire protocol, one connection per push and target.  The manager sends
one header line, then the source as its UTF-8 bytes — the bytes
``ProgramCache.digest`` hashes; the byte count marks the end.  The
service answers on the same connection and closes it:

    manager -> node:  PUSH <xfer> <n_bytes> <backend> <verify>\\n<source>
    node -> manager:  OK <xfer> <cache_hit>
                      REJ <xfer> <reason>

Malformed input is rejected and counted, never raised through the
node's receive path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..jit.pipeline import DEFAULT_BACKEND
from ..lang.errors import PlanPError
from ..net.addresses import HostAddr
from ..net.node import Host, Node
from ..net.tcp import TcpConnection
from ..net.topology import Network
from .planp_layer import PlanPLayer

DEPLOY_PORT = 9900
#: longest header line a service buffers before calling the connection
#: malformed
MAX_HEADER = 256
#: how far :meth:`DeploymentManager.await_converged` advances the
#: simulation between looks at the statuses (sim-seconds)
POLL_S = 0.05


# ---------------------------------------------------------------------------
# Receiving side
# ---------------------------------------------------------------------------


class DeploymentService:
    """The on-node receiver: reads one push per connection, verifies,
    installs, answers.

    A push in progress is the connection's, and dies with it when the
    node crashes.  What the node should run is the layer's
    :attr:`~PlanPLayer.manifest`, which the service re-installs through
    the program cache when the node restarts.
    """

    def __init__(self, net: Network, node: Node,
                 port: int = DEPLOY_PORT):
        self.net = net
        self.node = node
        self.port = port
        self.installed: list[str] = []
        self.rejected: list[tuple[str, str]] = []
        #: source digests re-installed from the layer's manifest after
        #: restarts
        self.reinstalled: list[str] = []
        #: connections rejected for an unparseable header or byte count
        self.malformed = 0
        net.tcp(node).listen(port, self._on_accept)
        if node.planp is None:
            PlanPLayer(node)
        node.restart_hooks.append(self._on_restart)
        net.obs.metrics.register(f"deploy.service.{node.name}",
                                 self._stats_dict)

    def _stats_dict(self) -> dict[str, int]:
        return {"installed": len(self.installed),
                "rejected": len(self.rejected),
                "reinstalled": len(self.reinstalled),
                "malformed": self.malformed}

    # -- protocol ----------------------------------------------------------------

    def _on_accept(self, conn: TcpConnection) -> None:
        buf = bytearray()

        def on_data(conn: TcpConnection, data: bytes) -> None:
            buf.extend(data)
            self._receive(conn, buf, eof=False)

        conn.on_data = on_data
        conn.on_close = lambda c: self._receive(c, buf, eof=True)
        conn.on_fail = lambda c: None  # a reset push leaves nothing

    def _receive(self, conn: TcpConnection, buf: bytearray,
                 eof: bool) -> None:
        header, newline, body = buf.partition(b"\n")
        if not (newline or eof or len(buf) > MAX_HEADER):
            return  # the header line is still arriving
        parts = header.decode("utf-8", errors="replace").split(" ")
        try:
            if not newline or parts[0] != "PUSH" or len(parts) != 5:
                raise ValueError(f"bad deploy header {parts[:1]!r}")
            n_bytes = int(parts[2])
            if n_bytes <= 0 or len(body) > n_bytes:
                raise ValueError(f"bad byte count {parts[2]!r}")
            if len(body) == n_bytes:
                self._install(conn, parts[1], bytes(body), parts[3],
                              parts[4] == "1")
            elif eof:
                # Closed before its byte count: nothing is installed.
                self._answer(conn, f"REJ {parts[1]} incomplete "
                                   f"({len(body)}/{n_bytes})")
        except ValueError:
            # Reject identifiably when a transfer id is parseable.
            self.malformed += 1
            self._answer(conn, f"REJ {parts[1]} malformed"
                         if len(parts) >= 2 and parts[1] else "")

    def _install(self, conn: TcpConnection, xfer: str, data: bytes,
                 backend: str, verify: bool) -> None:
        assert self.node.planp is not None
        try:
            source = data.decode("utf-8")
        except UnicodeDecodeError:
            # A verdict on the bytes: a re-push would carry the same.
            self._reject(conn, xfer, "undecodable source")
            return
        try:
            loaded = self.node.planp.install(
                source, backend=backend, verify=verify,
                source_name=f"<net:{xfer}>")
        except PlanPError as err:
            self._reject(conn, xfer, err.message)
            return
        self.installed.append(xfer)
        self._answer(conn, f"OK {xfer} {1 if loaded.cache_hit else 0}")

    def _reject(self, conn: TcpConnection, xfer: str, reason: str) -> None:
        self.rejected.append((xfer, reason))
        self.net.obs.events.emit("deploy", node=self.node.name,
                                 action="reject", xfer=xfer,
                                 reason=reason)
        self._answer(conn, f"REJ {xfer} {reason}")

    @staticmethod
    def _answer(conn: TcpConnection, verdict: str) -> None:
        """Send the verdict (if any), stop listening, and hang up."""
        conn.on_data = lambda c, data: None
        conn.on_close = None
        if verdict:
            conn.send(verdict.encode("utf-8"))
        conn.close()

    # -- restart recovery --------------------------------------------------------

    def _on_restart(self) -> None:
        """Re-install what the layer's manifest says this node should
        run — through the content-addressed program cache, so the
        re-verify and code generation are warm."""
        layer = self.node.planp
        assert layer is not None
        program = layer.manifest
        if program is None:
            return
        try:
            layer.install(program.source, backend=program.backend,
                          verify=program.verified,
                          source_name="<manifest>")
        except PlanPError:  # pragma: no cover - verdicts are cached
            return
        self.reinstalled.append(program.source_sha)
        self.net.obs.events.emit("deploy", node=self.node.name,
                                 action="reinstall",
                                 sha=program.source_sha)


# ---------------------------------------------------------------------------
# Sending side
# ---------------------------------------------------------------------------


@dataclass
class RetryPolicy:
    """How long one push may take; retransmission is the transport's."""

    #: sim-seconds from (re-)push until a pending target fails
    deadline: float = 10.0


@dataclass
class PushStatus:
    """Outcome of one node's installation, as answered.

    ``ok`` is ``None`` only while the push is in flight; the deadline
    guarantees it reaches a terminal ``True``/``False`` (with
    ``detail`` carrying the rejection reason, ``timeout``,
    ``unreachable`` or ``refused``).
    """

    target: HostAddr
    ok: bool | None = None   # None until terminal
    detail: str = ""
    #: did the node's install reuse the program cache?
    cache_hit: bool = False
    #: absolute sim-time by which this push reaches a terminal state
    deadline: float | None = None
    #: TCP retransmissions of this push's connections
    retries: int = 0
    #: connections reopened after failing once established (the
    #: target crashed and came back)
    restarts: int = 0

    @property
    def terminal(self) -> bool:
        return self.ok is not None


class _TargetPush:
    """One target's push: a TCP connection, reopened after the target
    restarts, raced against the deadline."""

    def __init__(self, manager: "DeploymentManager", xfer: str,
                 target: HostAddr):
        self.manager = manager
        self.xfer = xfer
        self.target = target
        self.status = manager.pushes[xfer][target]
        self.conn: TcpConnection | None = None
        sim = manager.host.sim
        self.status.deadline = sim.now + manager._sources[xfer][3].deadline
        self._deadline = sim.at(self.status.deadline, self._on_deadline)
        self._connect()

    def _connect(self) -> None:
        manager = self.manager
        data, backend, verify, _policy = manager._sources[self.xfer]
        self.established = False
        self.conn = conn = manager.net.tcp(manager.host).connect(
            self.target, manager.port)
        conn.on_connected = self._on_connected
        conn.on_close = self._on_answer
        conn.on_fail = self._on_fail
        header = (f"PUSH {self.xfer} {len(data)} {backend} "
                  f"{1 if verify else 0}\n")
        conn.send(header.encode("utf-8") + data)

    def _release(self) -> TcpConnection:
        """Detach from the connection, counting its retransmissions."""
        conn = self.conn
        assert conn is not None
        self.conn = None
        conn.on_close = conn.on_fail = None
        self.status.retries += conn.retransmissions
        return conn

    # -- connection events ---------------------------------------------------------

    def _on_connected(self, conn: TcpConnection) -> None:
        self.established = True

    def _on_answer(self, conn: TcpConnection) -> None:
        """The service sent its verdict and closed."""
        self._release().close()
        verdict, _, rest = conn.received_data.decode(
            "utf-8", errors="replace").partition(" ")
        _xfer, _, detail = rest.partition(" ")
        if verdict == "OK" and detail in ("0", "1"):
            self.status.cache_hit = detail == "1"
            self._conclude("push-ok")
        else:
            self._conclude("push-rej", detail if verdict == "REJ"
                           else f"bad answer {verdict!r}")

    def _on_fail(self, conn: TcpConnection) -> None:
        self._release()
        if self.established:
            # The target restarted (its RST answered our
            # retransmission): push again on a new connection.
            self.status.restarts += 1
            self._connect()
        else:
            self._conclude("push-failed", "refused")

    def _on_deadline(self) -> None:
        route = self.manager.host.routes.lookup(self.target)
        self._conclude("push-failed",
                       "timeout" if route is not None else "unreachable")

    # -- outcome -------------------------------------------------------------------

    def _conclude(self, action: str, reason: str | None = None) -> None:
        self.status.ok = reason is None
        self.status.detail = reason or ""
        self.finish()
        extra = {} if reason is None else {"reason": reason}
        self.manager.net.obs.events.emit(
            "deploy", node=self.manager.host.name, action=action,
            xfer=self.xfer, target=str(self.target), **extra)

    def finish(self) -> None:
        """Stop the deadline and abort a connection still open."""
        self._deadline.cancel()
        self.manager._live.pop((self.xfer, self.target), None)
        if self.conn is not None:
            self._release().abort()


class DeploymentManager:
    """Pushes programs to DeploymentServices across the network."""

    def __init__(self, net: Network, host: Host,
                 port: int = DEPLOY_PORT):
        self.net = net
        self.host = host
        self.port = port
        self.pushes: dict[str, dict[HostAddr, PushStatus]] = {}
        #: push parameters kept for reconnects and re-push
        self._sources: dict[str, tuple[bytes, str, bool, RetryPolicy]] = {}
        self._live: dict[tuple[str, HostAddr], _TargetPush] = {}
        net.obs.metrics.register("deploy.manager", self._stats_dict)

    def _stats_dict(self) -> dict[str, int]:
        statuses = [s for push in self.pushes.values()
                    for s in push.values()]
        return {"pushes": len(self.pushes),
                "targets_ok": sum(1 for s in statuses if s.ok is True),
                "targets_failed": sum(1 for s in statuses
                                      if s.ok is False),
                "targets_pending": sum(1 for s in statuses
                                       if s.ok is None),
                "retries": sum(s.retries for s in statuses),
                "restarts": sum(s.restarts for s in statuses)}

    # -- pushing ------------------------------------------------------------------

    def push(self, source: str, targets: list[HostAddr], *,
             backend: str = DEFAULT_BACKEND, verify: bool = True,
             name: str = "", policy: RetryPolicy | None = None) -> str:
        """Ship ``source`` to every target; returns the transfer id
        (``name``, or ``asp<n>`` numbered by this manager's pushes).

        Verdicts arrive asynchronously; poll :meth:`status` after
        running the simulation, or drive it with
        :meth:`await_converged`.  Every target reaches a terminal status
        by its deadline."""
        xfer = name or f"asp{len(self.pushes) + 1}"
        data = source.encode("utf-8")
        self.pushes[xfer] = {t: PushStatus(target=t) for t in targets}
        self._sources[xfer] = (data, backend, verify,
                               policy or RetryPolicy())
        self.net.obs.events.emit("deploy", node=self.host.name,
                                 action="push", xfer=xfer,
                                 targets=len(targets), bytes=len(data))
        for target in targets:
            self._start(xfer, target)
        return xfer

    def repush(self, xfer: str,
               policy: RetryPolicy | None = None) -> list[HostAddr]:
        """Idempotently re-push ``xfer`` to every target that has not
        acknowledged success (failed pushes, nodes that rejoined after
        a crash).  Their statuses return to pending with
        a fresh deadline; cumulative counters are preserved.  ``policy``
        replaces the push's retry policy from here on.  Returns the
        targets re-pushed."""
        statuses = self.pushes.get(xfer)
        if statuses is None:
            raise KeyError(f"unknown transfer {xfer!r}")
        if policy is not None:
            data, backend, verify, _old = self._sources[xfer]
            self._sources[xfer] = (data, backend, verify, policy)
        targets = [t for t, s in statuses.items() if s.ok is not True]
        for target in targets:
            status = statuses[target]
            live = self._live.get((xfer, target))
            if live is not None:
                live.finish()
            status.ok = None
            status.detail = ""
            self._start(xfer, target)
        return targets

    def _start(self, xfer: str, target: HostAddr) -> None:
        self._live[(xfer, target)] = _TargetPush(self, xfer, target)

    # -- observability ------------------------------------------------------------

    def status(self, xfer: str) -> dict[HostAddr, PushStatus]:
        return self.pushes.get(xfer, {})

    def all_ok(self, xfer: str) -> bool:
        statuses = self.status(xfer)
        return bool(statuses) and all(s.ok for s in statuses.values())

    def converged(self, xfer: str) -> bool:
        """Has every target of ``xfer`` reached a terminal status?"""
        statuses = self.status(xfer)
        return bool(statuses) and all(s.terminal
                                      for s in statuses.values())

    def await_converged(self, xfer: str) -> bool:
        """Drive the simulation until every target of ``xfer`` is
        terminal.  The per-target deadline guarantees convergence, so
        this returns at the latest once the slowest target's deadline
        has passed."""
        sim = self.net.sim
        statuses = self.status(xfer)
        if not statuses:
            return False
        horizon = max((s.deadline if s.deadline is not None
                       else sim.now) for s in statuses.values()) + POLL_S
        while sim.now < horizon and not self.converged(xfer):
            self.net.run(until=min(sim.now + POLL_S, horizon))
        return self.converged(xfer)

    def counters(self, xfer: str) -> dict[str, int]:
        """Aggregate recovery counters for one push (how hard did the
        transport work to converge?)."""
        statuses = self.status(xfer)
        return {
            "retries": sum(s.retries for s in statuses.values()),
            "restarts": sum(s.restarts for s in statuses.values()),
        }
