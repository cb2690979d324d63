"""The hot-path classes stay slotted, and slotting moved no identity.

A forwarded packet allocates a ``Packet`` and an ``IpHeader`` per hop
and every transmission touches its queue, monitor and counters, so these
classes carry ``__slots__`` (DESIGN §13a): an instance ``__dict__``
coming back is a silent per-object cost.  What slotting must not move:
``HostAddr`` hashes as the tuple of its fields did (``multicast_groups``
set order depends on it), and addresses, headers and packets survive
``pickle`` (harness worker processes), ``copy.copy`` and
``dataclasses.replace`` (``Packet.copy``) unchanged.  Nor may the
constructors that store through the slot descriptors
(``addresses.slot_init``): every field reads back what was passed, by
position, by keyword or left to its declared default.
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
from repro.net.packet import (PROTO_TCP, PROTO_UDP, TRANSPORT_PROTO,
                              IpHeader, Packet, TcpHeader, UdpHeader,
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


# -- the constructors -----------------------------------------------------

ports = st.integers(0, 0xFFFF)
addresses = st.builds(HostAddr, st.integers(0, 0xFFFFFFFF))
headers = st.one_of(
    st.none(),
    st.builds(TcpHeader, ports, ports, st.integers(0, 2 ** 32),
              st.integers(0, 2 ** 32), st.booleans(), st.booleans(),
              st.booleans(), st.booleans(), ports),
    st.builds(UdpHeader, ports, ports))

#: a value strategy for every field of each class, by field name
FIELDS = {
    HostAddr: {"value": st.integers(0, 0xFFFFFFFF)},
    IpHeader: {"src": addresses, "dst": addresses,
               "ttl": st.integers(0, 255), "proto": st.integers(0, 255),
               "tos": st.integers(0, 255)},
    TcpHeader: {"src_port": ports, "dst_port": ports,
                "seq": st.integers(0, 2 ** 32),
                "ack": st.integers(0, 2 ** 32), "syn": st.booleans(),
                "fin": st.booleans(), "ack_flag": st.booleans(),
                "rst": st.booleans(), "window": ports},
    UdpHeader: {"src_port": ports, "dst_port": ports},
    Packet: {"ip": st.builds(IpHeader, addresses, addresses,
                             st.integers(0, 255), st.just(255),
                             st.integers(0, 255)),
             "transport": headers, "payload": st.binary(max_size=8),
             "channel": st.none() | st.sampled_from(["audio", "http"]),
             "uid": st.integers(1, 2 ** 40),
             "copied_from": st.none() | st.integers(1, 2 ** 40),
             "created_at": st.floats(0, 1e6)},
}
FROZEN = [HostAddr, IpHeader, TcpHeader, UdpHeader]


def draw_values(data, cls):
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == list(FIELDS[cls])  # a new field needs a strategy
    values = {n: data.draw(FIELDS[cls][n], label=n) for n in names}
    if cls is Packet:
        # the header ``Packet.__post_init__`` leaves as it is
        proto = TRANSPORT_PROTO.get(type(values["transport"]))
        if proto is not None:
            values["ip"] = dataclasses.replace(values["ip"], proto=proto)
    return names, values


def fields_of(obj, names):
    return tuple(getattr(obj, n) for n in names)


@pytest.mark.parametrize("cls", FROZEN + [Packet], ids=lambda c: c.__name__)
@given(data=st.data())
def test_every_field_reads_back_however_it_was_passed(cls, data):
    names, values = draw_values(data, cls)
    reference = tuple(values.values())
    by_position = cls(*reference)
    by_keyword = cls(**values)
    for obj in (by_position, by_keyword):
        assert type(obj) is cls
        assert fields_of(obj, names) == reference
        assert obj == by_position == by_keyword
        if cls in FROZEN:
            # a frozen dataclass hashes as the tuple of its fields
            assert hash(obj) == hash(reference)
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, name, values[name])
            assert fields_of(obj, names) == reference
    # a prefix by position, the rest left to their declared defaults
    given_n = data.draw(st.integers(0, len(names)), label="given")
    required = sum(f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING
                   for f in dataclasses.fields(cls))
    if given_n < required:
        with pytest.raises(TypeError):
            cls(*reference[:given_n])
        return
    obj = cls(*reference[:given_n])
    for i, (f, value) in enumerate(zip(dataclasses.fields(cls), reference)):
        if i < given_n:
            assert getattr(obj, f.name) == value, f.name
        elif f.default_factory is not dataclasses.MISSING:
            assert isinstance(getattr(obj, f.name), int)  # a fresh uid
        else:
            assert getattr(obj, f.name) == f.default, f.name


@pytest.mark.parametrize("cls", [IpHeader, TcpHeader, UdpHeader],
                         ids=lambda c: c.__name__)
def test_all_default_construction(cls):
    obj = cls()
    assert fields_of(obj, [f.name for f in dataclasses.fields(cls)]) == \
        tuple(f.default for f in dataclasses.fields(cls))
    assert obj == cls() and hash(obj) == hash(cls())


@pytest.mark.parametrize("value", [-1, 2 ** 32])
def test_address_range_is_still_checked(value):
    with pytest.raises(ValueError, match="out of range"):
        HostAddr(value)
    with pytest.raises(ValueError, match="out of range"):
        HostAddr(value=value)


@pytest.mark.parametrize("transport,proto", [(TcpHeader(), PROTO_TCP),
                                             (UdpHeader(), PROTO_UDP)])
def test_packet_still_normalizes_the_ip_proto(transport, proto):
    ip = IpHeader(A, B, 9, 255, 3)
    for packet in (Packet(ip, transport),
                   Packet(ip=ip, transport=transport)):
        assert packet.ip == IpHeader(A, B, 9, proto, 3)
