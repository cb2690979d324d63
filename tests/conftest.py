"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.interp import Interpreter, RecordingContext
from repro.lang import parse, typecheck
from repro.net.addresses import HostAddr
from repro.net.packet import IpHeader, TcpHeader, UdpHeader
from repro.obs import GLOBAL, reset_global

#: A minimal forwarding protocol used wherever "any valid program" works.
FORWARD_SRC = """\
channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
"""


def check(source: str):
    """Parse + type check, returning the ProgramInfo."""
    return typecheck(parse(source))


def run_packet(source: str, packet: tuple, *, ps=None, ctx=None,
               channel: str = "network", overload: int = 0,
               repeat: int = 1):
    """Interpret ``repeat`` invocations of a channel on one packet.

    Returns (final_ps, final_ss, ctx)."""
    info = check(source)
    if ctx is None:
        ctx = RecordingContext()
    interp = Interpreter(info, ctx)
    decl = info.channels[channel][overload]
    if ps is None:
        from repro.interp.values import default_value

        ps = default_value(decl.protocol_state_type)
    ss = interp.initial_channel_state(decl, ctx)
    for _ in range(repeat):
        ps, ss = interp.run_channel(decl, ps, ss, packet, ctx)
    return ps, ss, ctx


def tcp_packet_value(src="10.0.1.1", dst="10.0.2.2", sport=5555,
                     dport=80, payload=b"x", **tcp_kwargs) -> tuple:
    return (IpHeader(src=HostAddr.parse(src), dst=HostAddr.parse(dst)),
            TcpHeader(src_port=sport, dst_port=dport, **tcp_kwargs),
            payload)


def records_by_name(report) -> dict:
    """A sweep's records, by scenario name."""
    return {line["scenario"]: line["record"] for line in report.lines}


def remote_emissions(ctx: RecordingContext) -> list:
    """What a program sent on through ``OnRemote`` against ``ctx``."""
    return [e for e in ctx.emissions if e.kind == "remote"]


def delivered(ctx: RecordingContext) -> list:
    """What a program delivered to the host against ``ctx``."""
    return [e for e in ctx.emissions if e.kind == "deliver"]


def udp_packet_value(src="10.0.1.1", dst="10.0.2.2", sport=5555,
                     dport=7000, payload=b"x") -> tuple:
    return (IpHeader(src=HostAddr.parse(src), dst=HostAddr.parse(dst)),
            UdpHeader(src_port=sport, dst_port=dport),
            payload)


@pytest.fixture
def ctx() -> RecordingContext:
    return RecordingContext()


@pytest.fixture
def global_obs():
    """The process-wide observability scope, reset: where a fuzz
    campaign counts."""
    reset_global()
    return GLOBAL
