"""Transmission media: point-to-point links and shared segments.

Both media model store-and-forward transmission with a finite drop-tail
queue: a packet occupies the medium for its serialization delay
(size × 8 / bandwidth), then arrives after the propagation latency.
Random loss can be injected for failure tests.

``Segment`` models the shared Ethernet of the paper's figure 5: one
transmission queue (the medium is half-duplex) and broadcast delivery to
every other attached interface — which is what lets the load generator's
traffic crowd out the audio stream, and the MPEG capture ASP observe a
neighbour's video packets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .monitor import LinkStats, LoadMonitor
from .packet import Packet
from .sim import Simulator

if TYPE_CHECKING:
    from .node import Interface


class _TxQueue:
    """One transmission direction: serializer + bounded FIFO.

    Observability taps: ``send_taps`` fire when a packet starts
    transmission, ``drop_taps`` fire with a reason (``"down"``,
    ``"queue"``, ``"flush"``, ``"crash"``, ``"loss"``) whenever one is
    discarded.  Both lists are empty by default — the hot path pays one
    truthiness check.

    A frame past the serializer waits in ``_in_flight`` until its
    arrival event.  ``latency`` is fixed for the queue's life (the
    medium's, set once in :class:`Medium`), so arrivals fall due in
    transmission order and each one takes the list's head: a plain
    list, not a deque (56 against 760 bytes per idle queue; DESIGN
    §13a).  Both scheduled callbacks are bound once here, so a hop
    allocates no closure or bound method.
    """

    __slots__ = ("_sim", "bandwidth_bps", "latency", "queue_limit",
                 "loss_rate", "up", "_deliver", "_queue", "_sending",
                 "_in_flight", "stats", "monitor", "send_taps",
                 "drop_taps", "ctx", "_tx_done_cb", "_arrive_cb")

    def __init__(self, sim: Simulator, bandwidth_bps: float,
                 latency: float, queue_limit: int,
                 deliver: Callable[[Packet, "Interface"], None],
                 loss_rate: float = 0.0, name: str = "txq"):
        self._sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self.queue_limit = queue_limit
        self.loss_rate = loss_rate
        self.up = True
        self._deliver = deliver
        self._queue: list[tuple[Packet, "Interface"]] = []
        #: the ``(packet, sender)`` occupying the medium; None when idle
        self._sending: tuple[Packet, "Interface"] | None = None
        #: frames transmitted and not yet arrived, oldest first
        self._in_flight: list[tuple[Packet, "Interface"]] = []
        self.stats = LinkStats()
        self.monitor = LoadMonitor()
        self.send_taps: list[Callable[[Packet, "Interface"], None]] = []
        self.drop_taps: list[
            Callable[[Packet, "Interface", str], None]] = []
        #: this direction's scheduling context: transmission-complete
        #: and delivery events are attributed here, and loss draws come
        #: from its entropy stream — both per-queue, so this queue's
        #: keys and draws don't depend on traffic on any other medium
        self.ctx = sim.context(name)
        self._tx_done_cb = self._tx_done
        self._arrive_cb = self._arrive

    def _dropped(self, packet: Packet, sender: "Interface",
                 reason: str) -> None:
        self.stats.packets_dropped += 1
        self.stats.bytes_dropped += packet.size
        if self.drop_taps:
            for tap in self.drop_taps:
                tap(packet, sender, reason)

    def send(self, packet: Packet, sender: "Interface") -> None:
        if not self.up:
            self._dropped(packet, sender, "down")
            return
        if len(self._queue) >= self.queue_limit:
            self._dropped(packet, sender, "queue")
            return
        self._queue.append((packet, sender))
        if self._sending is None:
            self._transmit_next()

    def clear(self) -> None:
        """Drop everything queued (the medium went down)."""
        for packet, sender in self._queue:
            self._dropped(packet, sender, "flush")
        self._queue.clear()

    def drop_from(self, sender: "Interface") -> None:
        """Drop queued packets submitted by ``sender`` (its node
        crashed; frames still in its NIC buffer never hit the wire)."""
        kept = []
        for packet, who in self._queue:
            if who is sender:
                self._dropped(packet, who, "crash")
            else:
                kept.append((packet, who))
        self._queue[:] = kept

    def _transmit_next(self) -> None:
        if not self._queue:
            self._sending = None
            return
        packet, sender = self._sending = self._queue.pop(0)
        size = packet.size
        self.monitor.record(self._sim.now, size)
        self.stats.packets_sent += 1
        self.stats.bytes_sent += size
        if self.send_taps:
            for tap in self.send_taps:
                tap(packet, sender)
        self._sim.schedule(size * 8 / self.bandwidth_bps, self._tx_done_cb,
                           context=self.ctx)

    def _tx_done(self) -> None:
        """The medium is free again: lose or propagate the frame that
        occupied it, then start on the next one."""
        frame = self._sending
        # Random loss models a noisy medium; it happens after the
        # medium was occupied (collisions still consume airtime).
        # A medium that went down mid-transmission loses the frame.
        if not self.up or (self.loss_rate > 0.0
                           and self.ctx.entropy.random()
                           < self.loss_rate):
            packet, sender = frame
            self.stats.packets_lost += 1
            self.stats.bytes_lost += packet.size
            if self.drop_taps:
                for tap in self.drop_taps:
                    tap(packet, sender, "loss")
        else:
            # Past the serializer the frame is on the wire: it arrives
            # even if the medium goes down meanwhile.
            self._in_flight.append(frame)
            self._sim.schedule(self.latency, self._arrive_cb,
                               context=self.ctx)
        self._transmit_next()

    def _arrive(self) -> None:
        """The oldest frame in flight reaches the far end(s)."""
        packet, sender = self._in_flight.pop(0)
        self._deliver(packet, sender)

    def queue_length(self) -> int:
        return len(self._queue) + (0 if self._sending is None else 1)

    def load_kbps(self) -> int:
        return self.monitor.rate_kbps(self._sim.now)


class Medium:
    """What a link and a segment share: the attached interfaces, one
    transmission queue per sending direction, delivery to every end but
    the sender's, the up/down switch, taps and summed counters."""

    def __init__(self, sim: Simulator, bandwidth_bps: float,
                 latency: float, queue_limit: int, loss_rate: float,
                 name: str):
        # Checked here so Network.link / Network.segment fail at the
        # call that made the mistake, before anything is attached —
        # not as a ZeroDivisionError on the first packet, or never.
        for what, value, ok, want in (
                ("bandwidth_bps", bandwidth_bps, bandwidth_bps > 0, "> 0"),
                ("latency", latency, latency >= 0, ">= 0"),
                ("loss_rate", loss_rate, 0 <= loss_rate <= 1, "in [0, 1]"),
                ("queue_limit", queue_limit, queue_limit >= 0, ">= 0")):
            if not ok:
                raise ValueError(
                    f"medium {name!r}: {what} must be {want}, got {value!r}")
        self._sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self._queue_limit = queue_limit
        self._loss_rate = loss_rate
        self._ifaces: list["Interface"] = []
        self._queues: list[_TxQueue] = []

    def _new_queue(self, name: str) -> _TxQueue:
        txq = _TxQueue(self._sim, self.bandwidth_bps, self.latency,
                       self._queue_limit, self.deliver, self._loss_rate,
                       name=name)
        self._queues.append(txq)
        return txq

    def deliver(self, packet: Packet, sender: "Interface") -> None:
        """Hand ``packet`` to every attached interface but ``sender`` —
        the receiving half of a transmission."""
        for iface in self._ifaces:
            if iface is not sender:
                iface.receive(packet)

    @property
    def up(self) -> bool:
        """Is the medium carrying traffic?  Setting ``False`` flushes
        every transmission queue and drops everything sent until
        restored."""
        return all(tx.up for tx in self._queues)

    @up.setter
    def up(self, value: bool) -> None:
        for tx in self._queues:
            tx.up = value
            if not value:
                tx.clear()

    def add_send_tap(self,
                     tap: Callable[[Packet, "Interface"], None]) -> None:
        """Observe every packet starting transmission, any direction."""
        for tx in self._queues:
            tx.send_taps.append(tap)

    def add_drop_tap(self, tap: Callable[[Packet, "Interface", str],
                                         None]) -> None:
        """Observe every packet discarded on this medium, any
        direction, with the drop reason."""
        for tx in self._queues:
            tx.drop_taps.append(tap)

    def stats_dict(self) -> dict[str, object]:
        """Every direction's counters summed, plus live queue state —
        the shape :meth:`MetricsRegistry.register` adapts."""
        out = {"packets_sent": 0, "bytes_sent": 0, "packets_dropped": 0,
               "bytes_dropped": 0, "packets_lost": 0, "bytes_lost": 0}
        queued = 0
        for tx in self._queues:
            for key in out:
                out[key] += getattr(tx.stats, key)
            queued += tx.queue_length()
        out["queued"] = queued
        out["up"] = self.up
        return out

    @property
    def interfaces(self) -> list["Interface"]:
        return list(self._ifaces)


class Link(Medium):
    """A full-duplex point-to-point link between exactly two interfaces."""

    def __init__(self, sim: Simulator, bandwidth_bps: float = 10_000_000,
                 latency: float = 0.0005, queue_limit: int = 64,
                 loss_rate: float = 0.0, name: str = ""):
        super().__init__(sim, bandwidth_bps, latency, queue_limit,
                         loss_rate, name)
        self._tx: dict[int, _TxQueue] = {}

    def attach(self, iface: "Interface") -> None:
        if len(self._ifaces) >= 2:
            raise RuntimeError(f"link {self.name!r} already has two ends")
        self._ifaces.append(iface)
        self._tx[id(iface)] = self._new_queue(
            f"tx:{self.name or 'link'}:{iface.node.name}")

    def transmit(self, packet: Packet, sender: "Interface") -> None:
        self._tx[id(sender)].send(packet, sender)

    def other_end(self, iface: "Interface") -> "Interface":
        for other in self._ifaces:
            if other is not iface:
                return other
        raise RuntimeError("link has no other end attached")

    def tx_queue(self, sender: "Interface") -> _TxQueue:
        return self._tx[id(sender)]


class Segment(Medium):
    """A shared broadcast segment (the experiments' '10 Mbit Ethernet').

    Half-duplex: all transmissions serialize through one queue, so any
    attached station's traffic consumes the segment's capacity.  Every
    other attached interface receives each packet (receivers filter by
    address; ASPs may listen promiscuously).
    """

    #: the address block :meth:`Network.attach` allocates stations from
    subnet: int | None = None

    def __init__(self, sim: Simulator, bandwidth_bps: float = 10_000_000,
                 latency: float = 0.0002, queue_limit: int = 128,
                 loss_rate: float = 0.0, name: str = ""):
        super().__init__(sim, bandwidth_bps, latency, queue_limit,
                         loss_rate, name)
        self._tx = self._new_queue(f"tx:{name or 'segment'}")

    def attach(self, iface: "Interface") -> None:
        self._ifaces.append(iface)

    def transmit(self, packet: Packet, sender: "Interface") -> None:
        self._tx.send(packet, sender)

    def tx_queue(self, sender: "Interface") -> _TxQueue:
        return self._tx

    @property
    def stats(self) -> LinkStats:
        return self._tx.stats

    def load_kbps(self) -> int:
        return self._tx.load_kbps()
