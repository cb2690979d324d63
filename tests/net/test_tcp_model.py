"""Stateful model test for the TCP transport.

A hypothesis state machine drives connections from host ``a`` to host
``b`` across router ``r``, with link loss chosen once per run, and
interleaves sends, closes, time, link failures, crashes and restarts of
``b``, and bursts of SYNs at a listener with a bounded backlog.  After
every rule:

* each stream ``b``'s application saw is a prefix of what ``a`` sent on
  it — every byte exactly once, in order;
* no callback of a connection ``b`` held before a crash has fired since;
* the backlogged listener never holds more half-open connections than
  its backlog.

``drain`` heals the network, stops the loss, closes everything and
runs to idle: the simulator holds no event, no
connection survives together with its other end (and none at all when
there was neither loss nor fault), and every stream is either
delivered in full or reported its failure (``on_fail``) — in full,
necessarily, without loss or fault.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.net import Network
from repro.net.packet import tcp_packet
from repro.net.tcp import TcpState

APP_PORT = 80
FLOOD_PORT = 81
BACKLOG = 2
#: long enough for every retransmission schedule to give up (8 retries
#: with the RTO capped at 2 s) and every TIME_WAIT to expire
DRAIN_S = 30.0


class Stream:
    """One connection from ``a``: what was sent, what ``b`` received."""

    def __init__(self, conn):
        self.conn = conn
        self.sent = bytearray()
        self.received = bytearray()
        self.failed = False


class TcpMachine(RuleBasedStateMachine):
    @initialize(loss=st.sampled_from([0.3, 0.1, 0.0]),
                seed=st.integers(0, 2 ** 16), first=st.integers(1, 4000),
                ms=st.integers(0, 2000))
    def build(self, loss, seed, first, ms):
        self.loss = loss
        self.faulted = False
        net = self.net = Network(seed=seed)
        self.a, self.r, self.b = (net.add_host("a"), net.add_router("r"),
                                  net.add_host("b"))
        self.links = [net.link(self.a, self.r, loss_rate=loss),
                      net.link(self.r, self.b, loss_rate=loss)]
        net.finalize()
        #: a's local port -> its stream
        self.streams: dict[int, Stream] = {}
        #: callbacks that fired on a connection b held before a crash
        self.zombie_calls: list[str] = []
        net.tcp(self.b).listen(APP_PORT, self._accept)
        self.flood = net.tcp(self.b).listen(FLOOD_PORT, lambda c: None,
                                            backlog=BACKLOG)
        self.spoofed = 0
        # Every run starts with one stream carrying bytes for a while.
        self.connect()
        self.send(0, first)
        self.advance(ms)

    def _accept(self, conn):
        stream = self.streams[conn.remote_port]
        epoch = self.b.stats.crashes

        def guarded(name, action):
            def callback(*args):
                if self.b.stats.crashes != epoch:
                    self.zombie_calls.append(name)
                action(*args)
            return callback

        conn.on_data = guarded(
            "on_data", lambda c, data: stream.received.extend(data))
        conn.on_close = guarded("on_close", lambda c: c.close())
        conn.on_fail = guarded("on_fail", lambda c: None)

    def _open(self):
        return [s for s in self.streams.values()
                if s.conn.state is not TcpState.CLOSED
                and not s.conn._fin_queued]

    # -- rules ----------------------------------------------------------------

    @rule()
    def connect(self):
        conn = self.net.tcp(self.a).connect(self.b.address, APP_PORT)
        stream = self.streams[conn.local_port] = Stream(conn)
        conn.on_fail = lambda c: setattr(stream, "failed", True)

    @precondition(lambda self: self._open())
    @rule(pick=st.integers(0, 100), size=st.integers(1, 4000))
    def send(self, pick, size):
        open_streams = self._open()
        stream = open_streams[pick % len(open_streams)]
        data = bytes((len(stream.sent) + i) % 251 for i in range(size))
        stream.sent.extend(data)
        stream.conn.send(data)

    @precondition(lambda self: self._open())
    @rule(pick=st.integers(0, 100))
    def close(self, pick):
        open_streams = self._open()
        open_streams[pick % len(open_streams)].conn.close()

    @rule(ms=st.integers(0, 3000))
    def advance(self, ms):
        self.net.run(until=self.net.now + ms / 1000.0)

    @rule(which=st.integers(0, 1))
    def link_down(self, which):
        self.faulted = True
        self.net.faults.link_down(self.links[which])

    @rule(which=st.integers(0, 1))
    def link_up(self, which):
        self.net.faults.link_up(self.links[which])

    @rule()
    def crash_b(self):
        self.faulted = True
        self.net.faults.crash(self.b)

    @rule()
    def restart_b(self):
        self.net.faults.restart(self.b)

    @rule(n=st.integers(1, 5))
    def syn_flood(self, n):
        # From the router's address: r runs no TCP, so the SYN-ACKs die
        # there and each accepted SYN stays half-open.
        for _ in range(n):
            self.spoofed += 1
            self.r.ip_send(tcp_packet(self.r.address, self.b.address,
                                      20000 + self.spoofed, FLOOD_PORT,
                                      syn=True))

    @rule()
    def drain(self):
        # Heal everything and stop the loss, then a closes every
        # connection (b's application closes on a's FIN) and the
        # network runs to idle.
        for link in self.links:
            self.net.faults.link_up(link)
            for iface in link.interfaces:
                link.tx_queue(iface).loss_rate = 0.0
        self.net.faults.restart(self.b)
        a_stack, b_stack = self.net.tcp(self.a), self.net.tcp(self.b)
        for stream in self.streams.values():
            stream.conn.close()
        self.net.run(until=self.net.now + DRAIN_S)
        assert self.net.sim.pending_events == 0
        # No connection survives with its other end: what may be left
        # is an end whose peer gave up under loss and went silently —
        # no timer of ours notices that (no keepalive, no FIN_WAIT_2
        # timeout).
        a_ends = {(c.local_port, c.remote_port)
                  for c in a_stack._connections.values()}
        b_ends = {(c.remote_port, c.local_port)
                  for c in b_stack._connections.values()}
        assert not a_ends & b_ends
        clean = self.loss == 0.0 and not self.faulted
        if clean:
            assert a_stack.open_connections == b_stack.open_connections == 0
        for stream in self.streams.values():
            if clean:
                assert stream.received == stream.sent
                assert not stream.failed
            else:
                assert stream.received == stream.sent or stream.failed

    # -- what must hold after every rule --------------------------------------

    @invariant()
    def b_reads_a_prefix_exactly_once_in_order(self):
        for stream in self.streams.values():
            assert stream.sent.startswith(stream.received)

    @invariant()
    def no_callback_outlives_a_crash(self):
        assert self.zombie_calls == []

    @invariant()
    def half_open_within_backlog(self):
        assert self.flood.half_open() <= BACKLOG


TcpMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None)
TestTcpModel = TcpMachine.TestCase
