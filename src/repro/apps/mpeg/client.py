"""The MPEG client (paper §3.3).

The only application change from a pure point-to-point player: before
connecting to the server, the client asks the monitor ASP whether the
stream is already flowing on the segment ("the client program first
makes a request to the monitor ASP to see if the request can be filled
by an existing connection").  On a HIT it registers with its local
capture ASP and receives its neighbour's stream; on a MISS (or when no
monitor is configured, or the query times out) it proceeds exactly as
the unmodified player would.
"""

from __future__ import annotations

import enum

from ...asps.mpeg import (CAPTURE_CONFIG_PORT, MONITOR_QUERY_PORT,
                          MONITOR_REPLY_PORT, MPEG_CTRL_PORT)
from ...net.addresses import HostAddr
from ...net.node import Host
from ...net.tcp import TcpConnection
from ...net.topology import Network
from .stream import FrameAssembler, MpegStream

#: how long a viewer waits for the monitor's answer before opening its
#: own connection to the server
QUERY_TIMEOUT_S = 0.5


class ClientMode(enum.Enum):
    IDLE = "idle"
    QUERYING = "querying"
    DIRECT = "direct"        # own connection to the server
    SHARED = "shared"        # capturing a neighbour's stream
    FAILED = "failed"


class MpegClient:
    """One viewer of a live stream."""

    def __init__(self, net: Network, host: Host, server: HostAddr,
                 file_name: str, *, monitor: HostAddr | None = None,
                 video_port: int = 9000):
        self.net = net
        self.host = host
        self.server = server
        self.file_name = file_name
        self.monitor = monitor
        self.video_port = video_port

        self.mode = ClientMode.IDLE
        self.setup: MpegStream | None = None
        self.assembler = FrameAssembler()
        self.queries_sent = 0
        self.hits = 0
        self._ctrl_buffer = bytearray()
        self._video_socket = None
        self._query_socket = None
        self._timeout_handle = None

    # -- startup -----------------------------------------------------------------

    def start(self, at: float = 0.0) -> None:
        self.net.sim.at(at, self._begin)

    def _begin(self) -> None:
        if self.monitor is not None:
            self._query_monitor()
        else:
            self._connect_direct()

    # -- the monitor query path ---------------------------------------------------

    def _query_monitor(self) -> None:
        self.mode = ClientMode.QUERYING
        udp = self.net.udp(self.host)
        self._query_socket = udp.bind(MONITOR_REPLY_PORT)
        self._query_socket.on_datagram = self._on_monitor_reply
        query = udp.bind()
        query.sendto(self.monitor, MONITOR_QUERY_PORT,
                     f"QRY {self.file_name}".encode("latin-1"))
        self.queries_sent += 1
        self._timeout_handle = self.net.sim.schedule(
            QUERY_TIMEOUT_S, self._on_query_timeout)

    def _on_query_timeout(self) -> None:
        if self.mode is ClientMode.QUERYING:
            self._connect_direct()

    def _on_monitor_reply(self, payload: bytes, src: HostAddr,
                          src_port: int) -> None:
        if self.mode is not ClientMode.QUERYING:
            return
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
        text = payload.decode("latin-1")
        if not text.startswith("HIT "):
            self._connect_direct()
            return
        try:
            header, _, setup_line = text.partition("\n")
            _hit, addr_text, port_text = header.split(" ")
            target_addr = HostAddr.parse(addr_text)
            target_port = int(port_text)
            self.setup = MpegStream.parse_setup(setup_line)
        except (ValueError, IndexError):
            self._connect_direct()
            return
        self.hits += 1
        self._start_capture(target_addr, target_port)

    def _start_capture(self, addr: HostAddr, port: int) -> None:
        """Register the (addr, port) pair with the local capture ASP and
        listen on the *original* port number locally."""
        self.mode = ClientMode.SHARED
        self._listen_video(port)
        config = self.net.udp(self.host).bind()
        payload = addr.value.to_bytes(4, "big") + port.to_bytes(4, "big")
        config.sendto(self.host.address, CAPTURE_CONFIG_PORT, payload)

    # -- the direct (unmodified player) path -------------------------------------------

    def _connect_direct(self) -> None:
        self.mode = ClientMode.DIRECT
        self._listen_video(self.video_port)
        conn = self.net.tcp(self.host).connect(self.server,
                                               MPEG_CTRL_PORT)
        conn.on_connected = self._send_play
        conn.on_data = self._on_ctrl_data
        conn.on_fail = lambda c: self._fail()

    def _send_play(self, conn: TcpConnection) -> None:
        conn.send(f"PLAY {self.file_name} {self.video_port}\n"
                  .encode("latin-1"))

    def _on_ctrl_data(self, conn: TcpConnection, data: bytes) -> None:
        self._ctrl_buffer.extend(data)
        if b"\n" not in self._ctrl_buffer:
            return
        line, _, _ = bytes(self._ctrl_buffer).partition(b"\n")
        text = line.decode("latin-1")
        if text.startswith("SETUP "):
            try:
                self.setup = MpegStream.parse_setup(text)
            except ValueError:
                self._fail()
        else:
            self._fail()

    def _fail(self) -> None:
        self.mode = ClientMode.FAILED

    # -- video reception -------------------------------------------------------------------

    def _listen_video(self, port: int) -> None:
        socket = self.net.udp(self.host).bind(port)
        socket.on_datagram = self._on_video
        self._video_socket = socket

    def _on_video(self, payload: bytes, src: HostAddr,
                  src_port: int) -> None:
        try:
            self.assembler.add_chunk(payload, self.net.sim.now)
        except ValueError:
            pass

    # -- reporting ------------------------------------------------------------------------

    @property
    def frames_received(self) -> int:
        return len(self.assembler.frames_completed)

    def frame_rate(self, window: tuple[float, float]) -> float:
        start, end = window
        count = sum(1 for _no, _t, at in self.assembler.frames_completed
                    if start <= at < end)
        return count / (end - start) if end > start else 0.0
