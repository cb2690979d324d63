"""Wire-compatibility summary and checker tests.

The checker's contract: ``INCOMPATIBLE`` iff some wire packet a mixed
fleet can actually carry is misrouted or misread across generations;
``DEGRADED`` for deltas no packet can witness (dead tagged channels);
``COMPATIBLE`` otherwise.  Derivation must be total over every
type-checked program — it runs on the rollout path, where raising
would turn a veto gate into an outage.
"""

import random

import pytest

from repro.analysis.wire import (CHANNEL_REMOVED, EMISSION_TARGET_DROPPED,
                                 FIELD_LAYOUT_CHANGED, TAIL_CHANGED,
                                 OverloadShape, Verdict, check_compatible,
                                 wire_summary)
from repro.fuzz import derive_seed, gen_program
from repro.lang import parse, typecheck


def summary(source: str):
    return wire_summary(typecheck(parse(source)))


def compat(old: str, new: str):
    return check_compatible(summary(old), summary(new))


FWD = ("channel network(ps : int, ss : unit, p : {pt}) is "
       "(OnRemote(network, p); (ps + 1, ss))")
DELIVER = ("channel network(ps : int, ss : unit, p : {pt}) is "
           "(deliver(p); (ps, ss))")


class TestSummaryDerivation:
    def test_shapes_track_codec_layout(self):
        ws = summary(FWD.format(pt="ip*udp*int*blob"))
        (ch,) = ws.channels
        assert ch.name == "network" and ch.tag is None
        (shape,) = ch.shapes
        assert shape.transport == "udp"
        assert shape.views == ("int", "blob")
        assert shape.fixed == 4
        assert shape.has_tail
        assert shape.matchable

    def test_overloads_in_declaration_order(self):
        src = (FWD.format(pt="ip*tcp*int*int") + "\n"
               + FWD.format(pt="ip*tcp*blob"))
        (ch,) = summary(src).channels
        assert [s.views for s in ch.shapes] == [("int", "int"),
                                               ("blob",)]

    def test_emission_topology_follows_helper_funs(self):
        src = """\
fun relay(pkt : ip*udp*blob) : unit = OnRemote(network, pkt)
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (relay(p); (ps, ss))
"""
        ws = summary(src)
        assert ws.channel("network").emits == ("network",)
        assert not ws.channel("network").delivers
        assert ws.emitted_to() == {"network"}

    def test_deliver_flag(self):
        ws = summary(DELIVER.format(pt="ip*udp*blob"))
        assert ws.channel("network").delivers

    def test_digest_stable_and_body_insensitive(self):
        a = summary(FWD.format(pt="ip*udp*blob"))
        b = summary(FWD.format(pt="ip*udp*blob")
                    .replace("ps + 1", "ps + 2"))
        assert a.digest == b.digest  # same wire protocol
        c = summary(FWD.format(pt="ip*udp*int*blob"))
        assert a.digest != c.digest

    def test_admission_overlap_matrix(self):
        tailless8 = OverloadShape("tcp", ("int", "int"), 8, False)
        tail4 = OverloadShape("tcp", ("int", "blob"), 4, True)
        tail12 = OverloadShape("tcp", ("int", "int", "int", "blob"),
                               12, True)
        udp = OverloadShape("udp", ("int", "int"), 8, False)
        assert tailless8.admission_overlaps(tail4)
        assert not tailless8.admission_overlaps(tail12)
        assert tail4.admission_overlaps(tail12)
        assert not tailless8.admission_overlaps(udp)


class TestVerdicts:
    def test_identical_programs_compatible(self):
        report = compat(FWD.format(pt="ip*udp*blob"),
                        FWD.format(pt="ip*udp*blob"))
        assert report.verdict is Verdict.COMPATIBLE
        assert report.ok and not report.reasons

    def test_body_change_is_compatible(self):
        report = compat(FWD.format(pt="ip*udp*blob"),
                        DELIVER.format(pt="ip*udp*blob"))
        assert report.ok

    def test_field_retype_incompatible(self):
        report = compat(FWD.format(pt="ip*udp*int*blob"),
                        FWD.format(pt="ip*udp*host*blob"))
        assert report.verdict is Verdict.INCOMPATIBLE
        assert {r.kind for r in report.reasons} == {FIELD_LAYOUT_CHANGED}

    def test_tail_toggle_incompatible(self):
        report = compat(FWD.format(pt="ip*tcp*int*int"),
                        FWD.format(pt="ip*tcp*int*int*blob"))
        assert not report.ok
        assert TAIL_CHANGED in {r.kind for r in report.reasons}

    def test_disjoint_admission_narrowed(self):
        report = compat(FWD.format(pt="ip*tcp*int*int"),
                        FWD.format(pt="ip*tcp*string"))
        assert not report.ok

    def test_overload_added_flagged_via_reverse_direction(self):
        old = FWD.format(pt="ip*tcp*int*int")
        new = old + "\n" + FWD.format(pt="ip*tcp*blob")
        report = compat(old, new)
        assert not report.ok
        assert any(r.direction == "new->old" for r in report.reasons)

    def test_dead_tagged_channel_only_degrades(self):
        # A tagged channel nobody emits to changes shape: no packet
        # can witness it, so the fleet degrades instead of vetoing.
        base = FWD.format(pt="ip*udp*blob")
        old = base + ("\nchannel probe(ps : int, ss : unit, "
                      "p : ip*udp*blob) is (ps, ss)")
        new = base + ("\nchannel probe(ps : int, ss : unit, "
                      "p : ip*udp*int*blob) is (ps, ss)")
        report = compat(old, new)
        assert report.verdict is Verdict.DEGRADED
        assert report.ok

    def test_live_tagged_channel_change_vetoes(self):
        # probe emits to itself, so probe-tagged packets exist on the
        # wire and its shape change must veto.
        old = """\
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (deliver(p); (ps, ss))
channel probe(qs : int, qq : unit, q : ip*udp*blob) is
  (OnRemote(probe, q); (qs, qq))
"""
        new = old.replace("q : ip*udp*blob", "q : ip*udp*int*blob")
        report = compat(old, new)
        assert report.verdict is Verdict.INCOMPATIBLE

    def test_emitted_channel_dropped_incompatible(self):
        old = """\
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(probe, p); (ps, ss))
channel probe(ps : int, ss : unit, p : ip*udp*blob) is (ps, ss)
"""
        new = FWD.format(pt="ip*udp*blob")
        report = compat(old, new)
        assert not report.ok
        assert EMISSION_TARGET_DROPPED in {r.kind for r in report.reasons}

    def test_dead_tagged_channel_removed_degrades(self):
        old = (FWD.format(pt="ip*udp*blob")
               + "\nchannel probe(ps : int, ss : unit, "
                 "p : ip*udp*blob) is (ps, ss)")
        new = FWD.format(pt="ip*udp*blob")
        report = compat(old, new)
        assert report.verdict is Verdict.DEGRADED
        assert CHANNEL_REMOVED in {r.kind for r in report.reasons}

    def test_symmetry_of_verdict(self):
        old = FWD.format(pt="ip*udp*int*blob")
        new = FWD.format(pt="ip*udp*host*blob")
        assert compat(old, new).verdict == compat(new, old).verdict

    def test_describe_and_to_dict(self):
        report = compat(FWD.format(pt="ip*udp*int*blob"),
                        FWD.format(pt="ip*udp*host*blob"))
        text = report.describe()
        assert text.startswith("incompatible:")
        assert "network" in text
        doc = report.to_dict()
        assert doc["verdict"] == "incompatible"
        assert doc["reasons"][0]["kind"] == FIELD_LAYOUT_CHANGED


class TestTotalityProperty:
    """Satellite of the upgrade drill: derivation is total and
    reflexively compatible over every grammar-emitted program."""

    SEEDS = [derive_seed(2026, "wire-total", i) for i in range(120)]

    @pytest.mark.parametrize("seed", SEEDS[:40],
                             ids=lambda s: f"{s:x}"[:8])
    def test_summary_total_and_reflexive(self, seed):
        source = gen_program(random.Random(seed))
        info = typecheck(parse(source))
        ws = wire_summary(info)
        assert ws.channels and ws.digest
        report = check_compatible(ws, ws)
        assert report.verdict is Verdict.COMPATIBLE, source

    def test_summary_total_over_many_seeds(self):
        # The bulk sweep: no seed may raise, and self-comparison is
        # always compatible (the parametrized cases above give nice
        # per-seed reporting; this one gives volume).
        for seed in self.SEEDS:
            source = gen_program(random.Random(seed))
            ws = wire_summary(typecheck(parse(source)))
            assert check_compatible(ws, ws).ok

    def test_malformed_layout_recorded_not_raised(self):
        # A packet type the codec rejects (non-final blob) must yield
        # an unmatchable shape, not an exception.
        from repro.lang import types as T
        from repro.analysis.wire import _shape_of

        bad = T.TupleType([T.IP, T.BLOB, T.INT])
        shape = _shape_of(bad)
        assert not shape.matchable
        assert not shape.admits(0) and not shape.admits(64)
