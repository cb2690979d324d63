"""Reliable ASP deployment over the network itself (paper §5: "protocol
management functionalities, such as ASP deployment").

A :class:`DeploymentService` runs on every managed node and listens on a
UDP control port; a :class:`DeploymentManager` pushes program source to
any set of nodes.  The receiving node runs the full download path —
parse, type check, the four analyses, JIT — and acknowledges
acceptance (saying whether the program cache served it) or rejection
(with the failing analysis), exactly the late-checking deployment
story of §2.1.

Managed nodes crash, restart, and sit behind lossy links, so the push
protocol is engineered for failure (after Burgy et al.'s argument that
robustness belongs in the messaging layer itself):

* **Sliding window + ack per chunk.**  The manager holds at most
  ``WINDOW`` unacknowledged ``CHUNK`` datagrams in flight per target
  (bounding drop-tail queue pressure) and advances on each ``CACK``.
* **Retransmission with exponential backoff.**  Every protocol stage
  (``BEGIN``, outstanding chunks, ``COMMIT``) retransmits on a timer
  that doubles from ``INITIAL_TIMEOUT`` up to ``MAX_TIMEOUT``, jittered
  from the simulator's seeded RNG so synchronized failures don't retry
  in lockstep — and runs stay exactly reproducible.
* **Terminal deadlines.**  ``RetryPolicy.deadline`` sim-seconds after a
  (re-)push, any target still pending fails with reason ``timeout`` —
  or ``unreachable`` when the manager no longer has a route to it.  No
  push remains ``ok=None`` past its deadline; poll with
  :meth:`DeploymentManager.await_converged`.
* **Idempotent re-push and restart recovery.**  A receiver that lost
  its transfer state (crash, restart) answers retransmissions with
  ``REJ <xfer> unknown transfer``; the manager restarts that transfer
  from ``BEGIN``.  :meth:`DeploymentManager.repush` re-pushes a decided
  transfer to targets that rejoined later.  Installs go through the
  content-addressed program cache, so re-pushes re-verify and re-compile
  at cache speed.
* **One record of what should run.**  The node's packet layer keeps
  the last program it adopted and has not since removed
  (:attr:`PlanPLayer.manifest`), across crashes; on restart the service
  re-installs exactly that program through the warm program cache — so
  a rolled-back, quarantined or uninstalled program stays gone.

Wire protocol (one datagram per message, UTF-8 text headers; the source
travels as its UTF-8 bytes — the bytes ``ProgramCache.digest`` hashes —
cut into chunks at byte, not character, boundaries):

    manager -> node:  BEGIN <xfer> <n_chunks> <backend> <verify>
                      CHUNK <xfer> <index>\\n<raw source bytes>
                      COMMIT <xfer>
    node -> manager:  BEGACK <xfer>
                      CACK <xfer> <index>
                      OK <xfer> <cache_hit>
                      REJ <xfer> <reason>

Transfers are idempotent per ``<xfer>`` id; a retransmitted ``COMMIT``
whose verdict was lost is re-answered from the service's completion
memo, and malformed datagrams are rejected (never raised through the
node's receive path).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..jit.pipeline import DEFAULT_BACKEND
from ..lang.errors import PlanPError
from ..net.addresses import HostAddr
from ..net.node import Host, Node
from ..net.overload import Backoff
from ..net.sim import EventHandle
from ..net.topology import Network
from .planp_layer import PlanPLayer

DEPLOY_PORT = 9900
CHUNK_BYTES = 900

#: max unacknowledged CHUNK datagrams in flight per target
WINDOW = 8
#: first retransmission timeout, and the ceiling it doubles up to per
#: silent retry (sim-seconds)
INITIAL_TIMEOUT = 0.05
MAX_TIMEOUT = 1.0
#: ± fraction of jitter on every timer (from the sim's seeded RNG)
JITTER = 0.5
#: how far :meth:`DeploymentManager.await_converged` advances the
#: simulation between looks at the statuses (sim-seconds)
POLL_S = 0.05

#: ``REJ`` reason prefixes that report lost receiver state rather than
#: a verdict on the program itself; the manager restarts such transfers
#: from ``BEGIN`` instead of failing them.
RECOVERABLE_REASONS = ("unknown transfer", "incomplete", "malformed")


# ---------------------------------------------------------------------------
# Receiving side
# ---------------------------------------------------------------------------


@dataclass
class _Transfer:
    n_chunks: int
    backend: str
    verify: bool
    chunks: dict[int, bytes] = field(default_factory=dict)


class DeploymentService:
    """The on-node receiver: reassembles, verifies, installs.

    In-progress transfers and the completion memo are volatile (lost on
    :meth:`~repro.net.node.Node.crash`).  What the node should run is
    the layer's :attr:`~PlanPLayer.manifest`, which the service
    re-installs through the program cache when the node restarts.
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
        #: datagrams dropped or rejected for unparseable headers
        self.malformed = 0
        self._transfers: dict[str, _Transfer] = {}
        #: verdict memo per completed transfer, so a retransmitted
        #: COMMIT whose OK/REJ reply was lost is re-answered, not
        #: re-judged (volatile, like the kernel state it describes)
        self._completed: dict[str, str] = {}
        self._socket = net.udp(node).bind(port)
        self._socket.on_datagram = self._on_datagram
        if node.planp is None:
            PlanPLayer(node)
        node.crash_hooks.append(self._on_crash)
        node.restart_hooks.append(self._on_restart)
        net.obs.metrics.register(f"deploy.service.{node.name}",
                                 self._stats_dict)

    def _stats_dict(self) -> dict[str, int]:
        return {"installed": len(self.installed),
                "rejected": len(self.rejected),
                "reinstalled": len(self.reinstalled),
                "malformed": self.malformed}

    # -- protocol ----------------------------------------------------------------

    def _on_datagram(self, payload: bytes, src: HostAddr,
                     src_port: int) -> None:
        header, _, body = payload.partition(b"\n")
        parts = header.decode("utf-8", errors="replace").split(" ")
        try:
            self._dispatch(parts, body, src, src_port)
        except (ValueError, IndexError):
            # A malformed header must not take down the node's receive
            # path; reject identifiably when a transfer id is parseable.
            self.malformed += 1
            if len(parts) >= 2 and parts[1]:
                self._reply(src, src_port, f"REJ {parts[1]} malformed")

    def _dispatch(self, parts: list[str], body: bytes, src: HostAddr,
                  src_port: int) -> None:
        cmd = parts[0]
        if cmd == "BEGIN" and len(parts) == 5:
            self._begin(parts[1], int(parts[2]), parts[3],
                        parts[4] == "1", src, src_port)
        elif cmd == "CHUNK" and len(parts) == 3:
            self._chunk(parts[1], int(parts[2]), body, src, src_port)
        elif cmd == "COMMIT" and len(parts) == 2:
            self._commit(parts[1], src, src_port)
        else:
            raise ValueError(f"bad deploy datagram {parts[:1]!r}")

    def _begin(self, xfer: str, n_chunks: int, backend: str,
               verify: bool, src: HostAddr, src_port: int) -> None:
        if n_chunks <= 0:
            raise ValueError(f"bad chunk count {n_chunks}")
        self._completed.pop(xfer, None)  # a new push supersedes
        transfer = self._transfers.get(xfer)
        if (transfer is None or transfer.n_chunks != n_chunks
                or transfer.backend != backend
                or transfer.verify != verify):
            # Duplicate BEGINs with identical parameters keep already
            # received chunks (the BEGACK was lost, not the transfer).
            self._transfers[xfer] = _Transfer(
                n_chunks=n_chunks, backend=backend, verify=verify)
        self._reply(src, src_port, f"BEGACK {xfer}")

    def _chunk(self, xfer: str, index: int, body: bytes, src: HostAddr,
               src_port: int) -> None:
        transfer = self._transfers.get(xfer)
        if transfer is None:
            memo = self._completed.get(xfer)
            if memo is not None:
                # Retransmission of a decided push: re-answer it.
                self._reply(src, src_port, memo)
            else:
                # Receiver state was lost (crash/restart) — tell the
                # manager so it restarts the transfer from BEGIN.
                self._reply(src, src_port, f"REJ {xfer} unknown transfer")
            return
        if not 0 <= index < transfer.n_chunks:
            raise ValueError(f"chunk index {index} out of range")
        transfer.chunks[index] = body
        self._reply(src, src_port, f"CACK {xfer} {index}")

    def _commit(self, xfer: str, src: HostAddr, src_port: int) -> None:
        transfer = self._transfers.pop(xfer, None)
        if transfer is None:
            memo = self._completed.get(xfer)
            self._reply(src, src_port,
                        memo if memo is not None
                        else f"REJ {xfer} unknown transfer")
            return
        if len(transfer.chunks) != transfer.n_chunks:
            self._reply(src, src_port,
                        f"REJ {xfer} incomplete "
                        f"({len(transfer.chunks)}/{transfer.n_chunks})")
            return
        assert self.node.planp is not None
        try:
            # Chunks are joined before decoding, so a character split
            # across two of them is whole again here.  Bytes that still
            # do not decode are a verdict on the source, not lost
            # state: a retransmission would carry the same bytes.
            source = b"".join(transfer.chunks[i]
                              for i in range(transfer.n_chunks)) \
                .decode("utf-8")
        except UnicodeDecodeError:
            self._reject(src, src_port, xfer, "undecodable source")
            return
        try:
            loaded = self.node.planp.install(
                source, backend=transfer.backend,
                verify=transfer.verify, source_name=f"<net:{xfer}>")
        except PlanPError as err:
            self._reject(src, src_port, xfer, err.message)
            return
        self.installed.append(xfer)
        self._conclude(src, src_port, xfer,
                       f"OK {xfer} {1 if loaded.cache_hit else 0}")

    def _reject(self, dst: HostAddr, dst_port: int, xfer: str,
                reason: str) -> None:
        self.rejected.append((xfer, reason))
        self.net.obs.events.emit("deploy", node=self.node.name,
                                 action="reject", xfer=xfer,
                                 reason=reason)
        self._conclude(dst, dst_port, xfer, f"REJ {xfer} {reason}")

    def _conclude(self, dst: HostAddr, dst_port: int, xfer: str,
                  verdict: str) -> None:
        self._completed[xfer] = verdict
        self._reply(dst, dst_port, verdict)

    def _reply(self, dst: HostAddr, dst_port: int, text: str) -> None:
        self._socket.sendto(dst, dst_port, text.encode("utf-8"))

    # -- crash / restart recovery ------------------------------------------------

    def _on_crash(self) -> None:
        self._transfers.clear()
        self._completed.clear()

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
    """How long one push may take; the window and the retransmission
    schedule are the module constants above."""

    #: sim-seconds from (re-)push until a pending target fails
    deadline: float = 10.0


@dataclass
class PushStatus:
    """Outcome of one node's installation, as acknowledged.

    ``ok`` is ``None`` only while the push is in flight; the deadline
    guarantees it reaches a terminal ``True``/``False`` (with
    ``detail`` carrying the rejection reason, ``timeout``, or
    ``unreachable``).
    """

    target: HostAddr
    ok: bool | None = None   # None until terminal
    detail: str = ""
    #: did the node's install reuse the program cache?
    cache_hit: bool = False
    #: absolute sim-time by which this push reaches a terminal state
    deadline: float | None = None
    #: retransmission timer firings
    retries: int = 0
    #: transfer restarts from BEGIN (receiver lost its state)
    restarts: int = 0
    #: CHUNK datagrams sent, retransmissions included
    chunks_sent: int = 0
    #: acks that arrived after the status was already terminal
    late_acks: int = 0

    @property
    def terminal(self) -> bool:
        return self.ok is not None


class _TargetTransfer:
    """Manager-side reliable delivery of one transfer to one target."""

    def __init__(self, manager: "DeploymentManager", xfer: str,
                 target: HostAddr, chunks: list[bytes], backend: str,
                 verify: bool, policy: RetryPolicy, status: PushStatus):
        self.manager = manager
        self.xfer = xfer
        self.target = target
        self.chunks = chunks
        self.backend = backend
        self.verify = verify
        self.policy = policy
        self.status = status
        self.state = "begin"     # begin -> data -> commit -> done
        self.acked: set[int] = set()
        self.outstanding: set[int] = set()
        self.next_idx = 0
        self._timer: EventHandle | None = None
        self._deadline: EventHandle | None = None
        # Per-transfer jitter stream: retry desynchronization must not
        # depend on what other transfers (or unrelated traffic) drew
        # from the shared stream.
        # The schedule itself is the shared overload-control Backoff
        # (one jitter draw per armed timer, doubled per silent firing,
        # reset on progress).
        self.backoff = Backoff(
            initial=INITIAL_TIMEOUT, ceiling=MAX_TIMEOUT, jitter=JITTER,
            entropy=manager.host.sim.entropy(
                f"deploy:{xfer}:{target}"))

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        sim = self.manager.host.sim
        self.status.deadline = sim.now + self.policy.deadline
        self._deadline = sim.at(self.status.deadline, self._on_deadline)
        self._send_begin()

    def _send_begin(self) -> None:
        self.state = "begin"
        self.manager._send(
            self.target,
            f"BEGIN {self.xfer} {len(self.chunks)} {self.backend} "
            f"{1 if self.verify else 0}")
        self._arm()

    def on_begack(self) -> None:
        if self.state != "begin":
            return
        self.state = "data"
        self.backoff.reset()
        self._fill_window()
        self._arm()

    def on_cack(self, index: int) -> None:
        if self.state != "data" or index in self.acked:
            return
        self.acked.add(index)
        self.outstanding.discard(index)
        self.backoff.reset()  # progress: reset backoff
        if len(self.acked) == len(self.chunks):
            self._send_commit()
        else:
            self._fill_window()
            self._arm()

    def restart_transfer(self) -> None:
        """The receiver lost its transfer state (it crashed and came
        back): start over from BEGIN.  The content-addressed program
        cache makes the repeated install cheap on the node."""
        if self.state == "begin":
            return  # already restarting; duplicate loss report
        self.status.restarts += 1
        self.acked.clear()
        self.outstanding.clear()
        self.next_idx = 0
        self.backoff.reset()
        self._send_begin()

    def finish(self) -> None:
        self.state = "done"
        self._cancel_timer()
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        self.manager._live.pop((self.xfer, self.target), None)

    # -- transmission -------------------------------------------------------------

    def _fill_window(self) -> None:
        while (self.next_idx < len(self.chunks)
               and len(self.outstanding) < WINDOW):
            self._send_chunk(self.next_idx)
            self.outstanding.add(self.next_idx)
            self.next_idx += 1

    def _send_chunk(self, index: int) -> None:
        self.status.chunks_sent += 1
        self.manager._send(self.target,
                           f"CHUNK {self.xfer} {index}\n",
                           self.chunks[index])

    def _send_commit(self) -> None:
        self.state = "commit"
        self.manager._send(self.target, f"COMMIT {self.xfer}")
        self._arm()

    # -- timers -------------------------------------------------------------------

    def _arm(self) -> None:
        self._cancel_timer()
        self._timer = self.manager.host.sim.schedule(
            self.backoff.delay(), self._on_timer)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_timer(self) -> None:
        self._timer = None
        if self.state == "done":
            return
        self.status.retries += 1
        self.backoff.bump()
        if self.state == "begin":
            self._send_begin()
            return  # _send_begin re-arms
        if self.state == "data":
            for index in sorted(self.outstanding):
                self._send_chunk(index)
        elif self.state == "commit":
            self.manager._send(self.target, f"COMMIT {self.xfer}")
        self._arm()

    def _on_deadline(self) -> None:
        self._deadline = None
        if self.state == "done":
            return
        route = self.manager.host.routes.lookup(self.target)
        self.status.ok = False
        self.status.detail = "timeout" if route is not None \
            else "unreachable"
        self.finish()
        self.manager.net.obs.events.emit(
            "deploy", node=self.manager.host.name, action="push-failed",
            xfer=self.xfer, target=str(self.target),
            reason=self.status.detail)


class DeploymentManager:
    """Pushes programs to DeploymentServices across the network."""

    def __init__(self, net: Network, host: Host,
                 port: int = DEPLOY_PORT):
        self.net = net
        self.host = host
        self.port = port
        self.pushes: dict[str, dict[HostAddr, PushStatus]] = {}
        #: per manager, not per process: a transfer's id seeds its
        #: retry-jitter stream, so it must depend only on this
        #: manager's own push history
        self._ids = itertools.count(1)
        self._socket = net.udp(host).bind()
        self._socket.on_datagram = self._on_ack
        #: push parameters kept for retransmission and re-push
        self._sources: dict[str,
                            tuple[list[bytes], str, bool, RetryPolicy]] = {}
        self._live: dict[tuple[str, HostAddr], _TargetTransfer] = {}
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
                "restarts": sum(s.restarts for s in statuses),
                "chunks_sent": sum(s.chunks_sent for s in statuses),
                "late_acks": sum(s.late_acks for s in statuses)}

    # -- pushing ------------------------------------------------------------------

    def push(self, source: str, targets: list[HostAddr], *,
             backend: str = DEFAULT_BACKEND, verify: bool = True,
             name: str = "", policy: RetryPolicy | None = None) -> str:
        """Ship ``source`` to every target; returns the transfer id.

        Acks arrive asynchronously; poll :meth:`status` after running
        the simulation, or drive it with :meth:`await_converged`.
        Every target reaches a terminal status by its deadline."""
        xfer = name or f"asp{next(self._ids)}"
        data = source.encode("utf-8")
        chunks = [data[i:i + CHUNK_BYTES]
                  for i in range(0, max(len(data), 1), CHUNK_BYTES)]
        policy = policy or RetryPolicy()
        self.pushes[xfer] = {t: PushStatus(target=t) for t in targets}
        self._sources[xfer] = (chunks, backend, verify, policy)
        self.net.obs.events.emit("deploy", node=self.host.name,
                                 action="push", xfer=xfer,
                                 targets=len(targets),
                                 chunks=len(chunks))
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
            chunks, backend, verify, _old = self._sources[xfer]
            self._sources[xfer] = (chunks, backend, verify, policy)
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
        chunks, backend, verify, policy = self._sources[xfer]
        transfer = _TargetTransfer(self, xfer, target, chunks, backend,
                                   verify, policy,
                                   self.pushes[xfer][target])
        self._live[(xfer, target)] = transfer
        transfer.start()

    def _send(self, target: HostAddr, header: str,
              body: bytes = b"") -> None:
        self._socket.sendto(target, self.port,
                            header.encode("utf-8") + body)

    # -- acknowledgements ---------------------------------------------------------

    def _on_ack(self, payload: bytes, src: HostAddr,
                src_port: int) -> None:
        parts = payload.decode("utf-8", errors="replace").split(" ")
        if len(parts) < 2:
            return
        verdict, xfer = parts[0], parts[1]
        statuses = self.pushes.get(xfer)
        if statuses is None or src not in statuses:
            return
        status = statuses[src]
        if status.terminal:
            # A late or duplicate ack must not flip a terminal verdict:
            # an OK limping in after the deadline already marked the
            # target FAILED does not resurrect it.  Count it instead.
            status.late_acks += 1
            return
        live = self._live.get((xfer, src))
        if verdict == "OK":
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                return  # not an ack any service sends
            status.ok = True
            status.cache_hit = parts[2] == "1"
            if live is not None:
                live.finish()
            self.net.obs.events.emit("deploy", node=self.host.name,
                                     action="push-ok", xfer=xfer,
                                     target=str(src))
        elif verdict == "REJ":
            reason = " ".join(parts[2:])
            if live is not None and \
                    reason.startswith(RECOVERABLE_REASONS):
                live.restart_transfer()
            else:
                status.ok = False
                status.detail = reason
                if live is not None:
                    live.finish()
                self.net.obs.events.emit("deploy", node=self.host.name,
                                         action="push-rej", xfer=xfer,
                                         target=str(src), reason=reason)
        elif verdict == "BEGACK":
            if live is not None:
                live.on_begack()
        elif verdict == "CACK" and len(parts) == 3:
            if live is not None and parts[2].isdigit():
                live.on_cack(int(parts[2]))

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
        """Aggregate retry/loss counters for one push (observability of
        recovery: how hard did the protocol work to converge?)."""
        statuses = self.status(xfer)
        return {
            "retries": sum(s.retries for s in statuses.values()),
            "restarts": sum(s.restarts for s in statuses.values()),
            "chunks_sent": sum(s.chunks_sent for s in statuses.values()),
            "late_acks": sum(s.late_acks for s in statuses.values()),
        }
