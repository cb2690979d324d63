"""The hot-path classes stay slotted, and slotting moved no identity.

A forwarded packet allocates a ``Packet`` and an ``IpHeader`` per hop
and every transmission touches its queue, monitor and counters, so these
classes carry ``__slots__`` (DESIGN §13a): an instance ``__dict__``
coming back is a silent per-object cost.  What slotting must not move:
``HostAddr`` hashes as the tuple of its fields did (``multicast_groups``
set order depends on it), and addresses, headers and packets survive
``pickle`` (harness worker processes), ``copy.copy`` and
``dataclasses.replace`` (``Packet.copy``) unchanged.
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import Network
from repro.net.addresses import HostAddr
from repro.net.monitor import LinkStats, LoadMonitor
from repro.net.packet import (IpHeader, Packet, TcpHeader, UdpHeader,
                              tcp_packet, udp_packet)
from repro.net.sim import Simulator

A, B = HostAddr.parse("10.0.1.1"), HostAddr.parse("10.0.2.7")


def hot_path_instances():
    net = Network(seed=0)
    a, b = net.add_host("a"), net.add_host("b")
    link = net.link(a, b)
    txq = link.tx_queue(a.interfaces[0])
    return {
        "Packet": udp_packet(A, B, 1, 2, b"x"),
        "IpHeader": IpHeader(A, B),
        "TcpHeader": TcpHeader(1, 2),
        "UdpHeader": UdpHeader(1, 2),
        "HostAddr": A,
        "_TxQueue": txq,
        "LoadMonitor": LoadMonitor(),
        "LinkStats": LinkStats(),
        "EventHandle": Simulator().schedule(1.0, lambda: None),
    }


@pytest.mark.parametrize("name", sorted(hot_path_instances()))
def test_no_instance_dict(name):
    obj = hot_path_instances()[name]
    assert type(obj).__name__ == name
    assert not hasattr(obj, "__dict__")


@given(st.integers(0, 0xFFFFFFFF))
def test_address_hash_is_the_field_tuple_hash(value):
    assert hash(HostAddr(value)) == hash((value,))


def values():
    return [
        A,
        IpHeader(A, B, ttl=9, proto=17, tos=3),
        TcpHeader(1, 2, seq=5, ack=6, syn=True, ack_flag=True, window=9),
        UdpHeader(7, 8),
        dataclasses.replace(udp_packet(A, B, 1, 2, b"payload"),
                            channel="audio"),
        tcp_packet(A, B, 3, 4, b"get", seq=10, fin=True),
    ]


@pytest.mark.parametrize("value", values(), ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("round_trip", [
    lambda v: pickle.loads(pickle.dumps(v)),
    copy.copy,
    dataclasses.replace,
], ids=["pickle", "copy", "replace"])
def test_round_trips_keep_value_and_type(value, round_trip):
    back = round_trip(value)
    assert type(back) is type(value)
    assert back == value
    assert dataclasses.astuple(back) == dataclasses.astuple(value)


def test_packet_copy_and_hop_still_work_slotted():
    packet = udp_packet(A, B, 1, 2, b"x")
    dup = packet.copy()
    assert dup.copied_from == packet.uid and dup.uid != packet.uid
    hopped = packet.hop()
    assert (hopped.ip.ttl, hopped.uid) == (packet.ip.ttl - 1, packet.uid)
    assert isinstance(hopped, Packet)
