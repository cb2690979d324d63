"""A TCP-style reliable byte-stream transport.

Implements the subset the experiments need, faithfully enough that the
HTTP gateway ASP works unmodified against it: three-way handshake,
MSS segmentation, cumulative ACKs with out-of-order reassembly, a fixed
send window, timeout-based retransmission with exponential backoff, and
FIN close in both directions.

Connections are identified by (local port, remote address, remote port),
which is exactly why the paper's load-balancing gateway works: it
rewrites the server-side address while the client continues to talk to
the virtual address (§3.2).
"""

from __future__ import annotations

import enum
from typing import Callable

from .addresses import HostAddr
from .node import Node
from .packet import PROTO_TCP, Packet, TcpHeader, tcp_packet
from .sim import EventHandle

MSS = 1460
DEFAULT_WINDOW_SEGMENTS = 16
INITIAL_RTO = 0.2
MAX_RTO = 2.0
MAX_RETRIES = 8
TIME_WAIT = 1.0


class TcpState(enum.Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT = "fin-wait"
    CLOSE_WAIT = "close-wait"
    LAST_ACK = "last-ack"
    TIME_WAIT = "time-wait"


class TcpError(Exception):
    """Raised on misuse of the socket API or connection failure."""


class TcpConnection:
    """One end of a TCP connection."""

    def __init__(self, stack: "TcpStack", local_port: int,
                 remote_addr: HostAddr, remote_port: int,
                 initial_seq: int):
        self.stack = stack
        self.node = stack.node
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.state = TcpState.CLOSED

        # Send side.
        self.snd_iss = initial_seq
        self.snd_nxt = initial_seq          # next sequence to use
        self.snd_una = initial_seq          # oldest unacked
        self.window_bytes = DEFAULT_WINDOW_SEGMENTS * MSS
        self._send_buffer = bytearray()     # not yet segmented
        self._inflight: dict[int, tuple[bytes, bool]] = {}  # seq -> (data, fin)
        self._fin_queued = False
        self._fin_sent = False

        # Receive side.
        self.rcv_nxt = 0
        self._reassembly: dict[int, bytes] = {}
        self._remote_fin_seq: int | None = None

        # Timers / retries.
        self._rto = INITIAL_RTO
        self._retries = 0
        self._retransmit_timer: EventHandle | None = None

        # Callbacks.
        self.on_connected: Callable[["TcpConnection"], None] | None = None
        self.on_data: Callable[["TcpConnection", bytes], None] | None = None
        self.on_close: Callable[["TcpConnection"], None] | None = None
        self.on_fail: Callable[["TcpConnection"], None] | None = None

        # Counters.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.retransmissions = 0
        self.received_data = bytearray()    # kept when on_data is unset

    # -- public API ----------------------------------------------------------

    def send(self, data: bytes) -> None:
        if self.state not in (TcpState.ESTABLISHED, TcpState.SYN_RCVD,
                              TcpState.SYN_SENT, TcpState.CLOSE_WAIT):
            raise TcpError(f"cannot send in state {self.state}")
        if self._fin_queued:
            raise TcpError("cannot send after close()")
        self._send_buffer.extend(data)
        self._pump()

    def close(self) -> None:
        """Half-close: flush pending data, then send FIN."""
        if self._fin_queued or self.state is TcpState.CLOSED:
            return
        self._fin_queued = True
        self._pump()

    def abort(self) -> None:
        """Hard close: send RST and drop all state."""
        if self.state is not TcpState.CLOSED:
            self._emit(rst=True)
        self._teardown(failed=True)

    @property
    def established(self) -> bool:
        return self.state is TcpState.ESTABLISHED

    # -- connection setup ------------------------------------------------------

    def _start_connect(self) -> None:
        self.state = TcpState.SYN_SENT
        self._emit(syn=True, seq=self.snd_nxt, ack=False)
        self._inflight[self.snd_nxt] = (b"", False)
        self.snd_nxt += 1  # SYN consumes one sequence number
        self._arm_retransmit()

    def _start_accept(self, syn: Packet) -> None:
        header = syn.transport
        assert isinstance(header, TcpHeader)
        self.state = TcpState.SYN_RCVD
        self.rcv_nxt = header.seq + 1
        self._emit(syn=True, ack=True, seq=self.snd_nxt)
        self._inflight[self.snd_nxt] = (b"", False)
        self.snd_nxt += 1
        self._arm_retransmit()

    # -- segment transmission ------------------------------------------------------

    def _emit(self, *, seq: int | None = None, payload: bytes = b"",
              syn: bool = False, fin: bool = False, ack: bool = True,
              rst: bool = False) -> None:
        packet = tcp_packet(
            self.node.address, self.remote_addr, self.local_port,
            self.remote_port, payload,
            seq=self.snd_nxt if seq is None else seq,
            ack=self.rcv_nxt, syn=syn, fin=fin, ack_flag=ack, rst=rst)
        packet.created_at = self.node.sim.now
        self.stack.segments_out += 1
        self.node.ip_send(packet)

    def _pump(self) -> None:
        """Move bytes from the send buffer into the window."""
        while self._send_buffer and self._inflight_bytes() < \
                self.window_bytes and self.state in (
                    TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            chunk = bytes(self._send_buffer[:MSS])
            del self._send_buffer[:MSS]
            self._inflight[self.snd_nxt] = (chunk, False)
            self._emit(seq=self.snd_nxt, payload=chunk)
            self.bytes_sent += len(chunk)
            self.snd_nxt += len(chunk)
        if (self._fin_queued and not self._fin_sent
                and not self._send_buffer
                and self.state in (TcpState.ESTABLISHED,
                                   TcpState.CLOSE_WAIT)):
            self._fin_sent = True
            self._inflight[self.snd_nxt] = (b"", True)
            self._emit(seq=self.snd_nxt, fin=True)
            self.snd_nxt += 1
            self.state = (TcpState.FIN_WAIT
                          if self.state is TcpState.ESTABLISHED
                          else TcpState.LAST_ACK)
        if self._inflight:
            self._arm_retransmit()

    def _inflight_bytes(self) -> int:
        return sum(len(data) for data, _fin in self._inflight.values())

    # -- retransmission ------------------------------------------------------------

    def _arm_retransmit(self) -> None:
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
        self._retransmit_timer = self.node.sim.schedule(
            self._rto, self._on_retransmit_timeout)

    def _on_retransmit_timeout(self) -> None:
        if not self._inflight or self.state is TcpState.CLOSED:
            return
        self._retries += 1
        if self._retries > MAX_RETRIES:
            self._teardown(failed=True)
            return
        self.retransmissions += 1
        self.stack.retransmissions += 1
        self._rto = min(self._rto * 2, MAX_RTO)
        seq = min(self._inflight)
        data, fin = self._inflight[seq]
        if self.state is TcpState.SYN_SENT:
            self._emit(syn=True, seq=seq, ack=False)
        elif self.state is TcpState.SYN_RCVD:
            self._emit(syn=True, ack=True, seq=seq)
        else:
            self._emit(seq=seq, payload=data, fin=fin)
        self._arm_retransmit()

    # -- segment reception ------------------------------------------------------------

    def handle_segment(self, packet: Packet) -> None:
        header = packet.transport
        assert isinstance(header, TcpHeader)
        self.stack.segments_in += 1

        if header.rst:
            self._teardown(failed=True)
            return

        if self.state is TcpState.SYN_SENT:
            if header.syn and header.ack_flag and \
                    header.ack == self.snd_nxt:
                self._ack_inflight(header.ack)
                self.rcv_nxt = header.seq + 1
                self.state = TcpState.ESTABLISHED
                self._emit()  # ACK of the SYN-ACK
                if self.on_connected:
                    self.on_connected(self)
                self._pump()
            return

        if header.ack_flag:
            self._ack_inflight(header.ack)
            if self.state is TcpState.SYN_RCVD and \
                    header.ack == self.snd_iss + 1:
                self.state = TcpState.ESTABLISHED
                if self.on_connected:
                    self.on_connected(self)

        if header.syn:
            # Duplicate SYN (our SYN-ACK was lost): re-answer.
            if self.state in (TcpState.SYN_RCVD, TcpState.ESTABLISHED):
                self._emit(syn=True, ack=True, seq=self.snd_iss)
            return

        advanced = False
        if header.fin:
            self._remote_fin_seq = header.seq + len(packet.payload)
        if packet.payload:
            if header.seq == self.rcv_nxt:
                self._accept_data(packet.payload)
                advanced = True
                self._drain_reassembly()
            elif header.seq > self.rcv_nxt:
                self._reassembly.setdefault(header.seq, packet.payload)
            # stale duplicate: just re-ack
            self._emit()
        if self._remote_fin_seq is not None and \
                self.rcv_nxt == self._remote_fin_seq:
            self._remote_fin_seq = None
            self.rcv_nxt += 1
            self._emit()  # ack the FIN
            if self.state is TcpState.ESTABLISHED:
                self.state = TcpState.CLOSE_WAIT
            elif self.state is TcpState.FIN_WAIT:
                self._enter_time_wait()
            if self.on_close:
                self.on_close(self)
        elif header.fin and not packet.payload and not advanced:
            self._emit()  # ack duplicate/ooo FIN
        self._pump()

    def _accept_data(self, data: bytes) -> None:
        self.rcv_nxt += len(data)
        self.bytes_received += len(data)
        self.stack.bytes_in += len(data)
        if self.on_data:
            self.on_data(self, data)
        else:
            self.received_data.extend(data)

    def _drain_reassembly(self) -> None:
        while self.rcv_nxt in self._reassembly:
            data = self._reassembly.pop(self.rcv_nxt)
            self._accept_data(data)

    def _ack_inflight(self, ack: int) -> None:
        acked_any = False
        for seq in sorted(self._inflight):
            data, _fin = self._inflight[seq]
            # SYN/FIN-only entries occupy one sequence number.
            end = seq + (len(data) if data else 1)
            if end <= ack:
                del self._inflight[seq]
                acked_any = True
            else:
                break
        if acked_any:
            self.snd_una = ack
            self._retries = 0
            self._rto = INITIAL_RTO
            if self._inflight:
                self._arm_retransmit()
            elif self._retransmit_timer is not None:
                self._retransmit_timer.cancel()
                self._retransmit_timer = None
            if self.state is TcpState.LAST_ACK and not self._inflight:
                self._teardown(failed=False)
        self._pump()

    # -- teardown ----------------------------------------------------------------------

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self.node.sim.schedule(TIME_WAIT,
                               lambda: self._teardown(failed=False))

    def _teardown(self, failed: bool) -> None:
        if self.state is TcpState.CLOSED:
            return
        was_established = self.state in (
            TcpState.ESTABLISHED, TcpState.FIN_WAIT, TcpState.CLOSE_WAIT,
            TcpState.LAST_ACK, TcpState.TIME_WAIT)
        self.state = TcpState.CLOSED
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
        self.stack._forget(self)
        if failed:
            if self.on_fail:
                self.on_fail(self)
            elif self.on_close and was_established:
                self.on_close(self)

    def __repr__(self) -> str:
        return (f"TcpConnection({self.node.name}:{self.local_port} <-> "
                f"{self.remote_addr}:{self.remote_port} {self.state.value})")


class TcpListener:
    """A passive socket accepting connections on a port.

    ``backlog`` bounds half-open (SYN_RCVD) connections on the port —
    the listen queue.  A SYN arriving with the queue full is dropped
    silently, exactly like a kernel whose SYN queue overflowed: the
    client retransmits and may win a freed slot later.  ``None`` (the
    default) keeps the historical unbounded behavior; overload-aware
    servers pass a bound, which is what makes them SYN-floodable in a
    *bounded* way (state exhaustion, not memory exhaustion).
    """

    def __init__(self, stack: "TcpStack", port: int,
                 on_accept: Callable[[TcpConnection], None],
                 backlog: int | None = None):
        self.stack = stack
        self.port = port
        self.on_accept = on_accept
        self.backlog = backlog
        self.accepted = 0
        self.syn_backlog_drops = 0

    def half_open(self) -> int:
        """Current SYN_RCVD connections on this port."""
        return sum(1 for c in self.stack._connections.values()
                   if c.local_port == self.port
                   and c.state is TcpState.SYN_RCVD)

    def close(self) -> None:
        self.stack._listeners.pop(self.port, None)


class TcpStack:
    """The TCP layer of one node."""

    EPHEMERAL_BASE = 40000

    def __init__(self, node: Node):
        self.node = node
        self._listeners: dict[int, TcpListener] = {}
        self._connections: dict[tuple[int, HostAddr, int],
                                TcpConnection] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        self._next_iss = 1000
        self.segments_in = 0
        self.segments_out = 0
        self.retransmissions = 0
        self.bytes_in = 0
        self.syn_backlog_drops = 0
        node.register_proto(PROTO_TCP, self._on_packet)
        node.crash_hooks.append(self._on_crash)

    # -- API ----------------------------------------------------------------------

    def listen(self, port: int,
               on_accept: Callable[[TcpConnection], None], *,
               backlog: int | None = None) -> TcpListener:
        if port in self._listeners:
            raise TcpError(f"tcp port {port} already listening on "
                           f"{self.node.name}")
        listener = TcpListener(self, port, on_accept, backlog=backlog)
        self._listeners[port] = listener
        return listener

    def connect(self, dst: HostAddr, dst_port: int,
                local_port: int = 0) -> TcpConnection:
        if local_port == 0:
            local_port = self._alloc_ephemeral()
        key = (local_port, dst, dst_port)
        if key in self._connections:
            raise TcpError(f"connection {key} already exists")
        conn = TcpConnection(self, local_port, dst, dst_port,
                             self._alloc_iss())
        self._connections[key] = conn
        conn._start_connect()
        return conn

    def _alloc_ephemeral(self) -> int:
        self._next_ephemeral += 1
        return self._next_ephemeral

    def _alloc_iss(self) -> int:
        self._next_iss += 64000
        return self._next_iss

    @property
    def open_connections(self) -> int:
        return len(self._connections)

    def stats_dict(self) -> dict[str, int]:
        """Counters for a metrics snapshot."""
        return {"segments_in": self.segments_in,
                "segments_out": self.segments_out,
                "retransmissions": self.retransmissions,
                "bytes_in": self.bytes_in,
                "open_connections": self.open_connections,
                "syn_backlog_drops": self.syn_backlog_drops}

    # -- demux -------------------------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        header = packet.transport
        if not isinstance(header, TcpHeader):
            return
        key = (header.dst_port, packet.ip.src, header.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.handle_segment(packet)
            return
        listener = self._listeners.get(header.dst_port)
        if listener is not None and header.syn and not header.ack_flag:
            if (listener.backlog is not None
                    and listener.half_open() >= listener.backlog):
                # SYN queue overflow: silent drop, no RST — the state
                # a SYN flood exhausts is bounded here by design.
                listener.syn_backlog_drops += 1
                self.syn_backlog_drops += 1
                return
            conn = TcpConnection(self, header.dst_port, packet.ip.src,
                                 header.src_port, self._alloc_iss())
            self._connections[key] = conn
            listener.accepted += 1
            listener.on_accept(conn)
            conn._start_accept(packet)
            return
        # No home for this segment: RST unless it *is* an RST.
        if not header.rst:
            reset = tcp_packet(self.node.address, packet.ip.src,
                               header.dst_port, header.src_port,
                               seq=header.ack, ack=0, rst=True)
            self.node.ip_send(reset)

    def _on_crash(self) -> None:
        """Connections are volatile state (see ``Node.crash``): they die
        with the node, silently — no callback runs on a down node, and
        a peer's next segment draws a RST once the node is back.
        Listeners are configuration and stay."""
        for conn in self._connections.values():
            if conn._retransmit_timer is not None:
                conn._retransmit_timer.cancel()
            conn.state = TcpState.CLOSED
        self._connections.clear()

    def _forget(self, conn: TcpConnection) -> None:
        key = (conn.local_port, conn.remote_addr, conn.remote_port)
        if self._connections.get(key) is conn:
            del self._connections[key]
