"""Dispatch fast path: table-driven classification must be observably
identical to a structural walk over the declarations, while matching
each packet once."""

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.lang import types as T
from repro.net import Network
from repro.net.packet import tcp_packet, udp_packet
from repro.runtime import PlanPLayer, codec

from ..strategies import packets

#: Programs spanning the dispatch space: network overloads differing by
#: transport and payload shape, plus user-tagged channels.
PROGRAMS = {
    "overloads": """
channel network(ps : int, ss : unit, p : ip*udp*host*int) is
  (deliver(p); (ps + 100, ss))
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
channel network(ps : int, ss : unit, p : ip*tcp*char*blob) is
  (OnRemote(network, p); (ps + 10, ss))
""",
    "tagged": """
channel mine(ps : int, ss : unit, p : ip*udp*blob) is
  (deliver(p); (ps + 1, ss))
channel audio(ps : int, ss : unit, p : ip*udp*int*blob) is
  (deliver(p); (ps + 2, ss))
channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  (OnRemote(network, p); (ps, ss))
""",
    "raw-and-fixed": """
channel network(ps : int, ss : unit, p : ip*int) is
  (deliver(p); (ps + 1, ss))
channel network(ps : int, ss : unit, p : ip*bool*int) is
  (deliver(p); (ps + 2, ss))
channel network(ps : int, ss : unit, p : ip*udp*string) is
  (deliver(p); (ps + 3, ss))
""",
}


def structural_match(info, packet):
    """The reference the match table is checked against: walk the
    overloads of the packet's channel in declaration order and take the
    first whose type structurally matches (``codec.matches``)."""
    for decl in info.channel_overloads(packet.channel or "network"):
        if isinstance(decl.packet_type, T.TupleType) \
                and codec.matches(packet, decl.packet_type):
            return decl
    return None


def layer_on_router():
    net = Network(seed=9)
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    net.link(a, r)
    net.link(r, b)
    net.finalize()
    return net, a, r, b, PlanPLayer(r)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@settings(max_examples=200, deadline=None)
@given(packet=packets())
def test_fastpath_selects_same_decl_as_structural_match(name, packet):
    net, a, r, b, layer = layer_on_router()
    layer.install(PROGRAMS[name])
    structural = structural_match(layer.loaded.info, packet)
    hit = layer.core.lookup(packet)
    if structural is None:
        assert hit is None
    else:
        assert hit is not None
        assert hit.decl is structural
        # The prebuilt decoder agrees with the structural decode.
        assert hit.plan.decode(packet) == codec.decode(
            packet, hit.decl.packet_type)


@settings(max_examples=100, deadline=None)
@given(packet=packets())
def test_fastpath_equivalence_with_globals(packet):
    """Same property on a program with top-level vals (the table is
    built from declarations only, so vals must not affect dispatch)."""
    source = ("val k0 : int = 7\n"
              "channel network(ps : int, ss : unit, p : ip*tcp*blob) is\n"
              "  (OnRemote(network, p); (ps + k0, ss))\n")
    net, a, r, b, layer = layer_on_router()
    layer.install(source)
    structural = structural_match(layer.loaded.info, packet)
    hit = layer.core.lookup(packet)
    assert (structural is None) == (hit is None)
    if hit is not None:
        assert hit.decl is structural


class TestSingleMatch:
    def test_steady_state_does_no_structural_matching(self, monkeypatch):
        """Once installed, a forwarded packet must not call
        codec.matches at all (the old path called it per overload,
        twice per packet)."""
        net, a, r, b, layer = layer_on_router()
        layer.install(PROGRAMS["overloads"])
        calls = []
        real = codec.matches
        monkeypatch.setattr(codec, "matches",
                            lambda *args: calls.append(1) or real(*args))
        a.ip_send(udp_packet(a.address, b.address, 1, 2, bytes(8)))
        a.ip_send(tcp_packet(a.address, b.address, 1, 80, b"Gx"))
        net.run()
        assert layer.stats.packets_processed == 2
        assert calls == []

    def test_match_hit_is_passed_to_process(self):
        net, a, r, b, layer = layer_on_router()
        layer.install(PROGRAMS["overloads"])
        packet = udp_packet(a.address, b.address, 1, 2, bytes(3))
        hit = layer.match(packet)
        assert hit is layer.core.lookup(packet)
        before = layer.stats.fastpath_dispatches
        layer.process(packet, None, hit)
        # process() ran the hit it was handed instead of re-classifying.
        assert layer.stats.fastpath_dispatches == before
        assert layer.stats.packets_processed == 1

    def test_hit_survives_cpu_model_deferral(self):
        net, a, r, b, layer = layer_on_router()
        layer.install(PROGRAMS["overloads"])
        layer.cpu.per_item_s = 0.25
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        for _ in range(3):
            a.ip_send(udp_packet(a.address, b.address, 1, 2, bytes(3)))
        net.run()
        assert len(got) == 3
        assert layer.stats.packets_processed == 3

    def test_hit_of_a_replaced_core_runs_on_the_new_one(self):
        """A hit classified before the same program was adopted again
        (its overloads unchanged) runs on the running core; one whose
        overload the running program lacks gets standard treatment."""
        net, a, r, b, layer = layer_on_router()
        layer.install(PROGRAMS["overloads"])
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        packet = udp_packet(a.address, b.address, 1, 2, bytes(3))
        stale = layer.match(packet)
        layer.install_loaded(layer.loaded)
        assert layer.core.lookup(packet) is not stale
        layer.process(packet, None, stale)
        net.run()
        assert (layer.stats.packets_processed, len(got)) == (1, 1)
        layer.install(PROGRAMS["tagged"])
        layer.process(packet, None, stale)
        net.run()
        assert (layer.stats.packets_processed, len(got)) == (1, 2)

    def test_dispatch_counters(self):
        net, a, r, b, layer = layer_on_router()
        layer.install(PROGRAMS["overloads"])
        a.ip_send(udp_packet(a.address, b.address, 1, 2, bytes(3)))
        net.run()
        assert layer.stats.fastpath_dispatches >= 1
        assert layer.stats.structural_dispatches == 0


class TestOverloadOrder:
    def test_first_matching_overload_wins(self):
        """Declaration order is preserved by the table: an 8-byte UDP
        payload matches host*int (declared first), not blob."""
        net, a, r, b, layer = layer_on_router()
        layer.install(PROGRAMS["overloads"])
        a.ip_send(udp_packet(a.address, b.address, 1, 2, bytes(8)))
        a.ip_send(udp_packet(a.address, b.address, 1, 2, bytes(3)))
        net.run()
        assert layer.protocol_state == 101

    def test_tagged_packets_only_match_their_channel(self):
        net, a, r, b, layer = layer_on_router()
        layer.install(PROGRAMS["tagged"])
        tagged = replace(udp_packet(a.address, b.address, 1, 2, b"x"),
                         channel="mine")
        untagged = udp_packet(a.address, b.address, 1, 2, b"x")
        assert layer.core.lookup(tagged) is not None
        # no udp network overload
        assert layer.core.lookup(untagged) is None

    def test_uninstall_clears_table(self):
        net, a, r, b, layer = layer_on_router()
        layer.install(PROGRAMS["overloads"])
        layer.uninstall()
        assert layer.match(udp_packet(a.address, b.address, 1, 2,
                                      bytes(3))) is None
