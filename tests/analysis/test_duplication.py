"""Safe-duplication analysis tests."""

import pytest

from repro.analysis import check_duplication
from repro.lang import VerificationError, parse, typecheck


def check(source: str):
    return typecheck(parse(source))


class TestLinearPrograms:
    def test_single_emission_passes(self):
        report = check_duplication(check(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (ps, ss))"))
        assert report.multiplying_channels == set()
        assert report.max_emissions_per_path == 1

    def test_branching_single_emissions_pass(self):
        check_duplication(check(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "if tcpDst(#2 p) = 80 then (OnRemote(network, p); (ps, ss)) "
            "else (deliver(p); (ps, ss))"))

    def test_no_emission_is_trivially_linear(self):
        check_duplication(check(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(deliver(p); (ps, ss))"))


class TestMultiplyingPrograms:
    def test_self_amplifier_rejected(self):
        src = ("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
               "(OnRemote(network, p); OnRemote(network, p); (ps, ss))")
        with pytest.raises(VerificationError, match="exponential"):
            check_duplication(check(src))

    def test_two_channel_amplifying_cycle_rejected(self):
        src = """
channel a(ps : unit, ss : unit, p : ip*udp*blob) is
  (OnRemote(b, p); OnRemote(b, p); (ps, ss))
channel b(ps : unit, ss : unit, p : ip*udp*blob) is
  (OnRemote(a, p); (ps, ss))
"""
        with pytest.raises(VerificationError, match="exponential"):
            check_duplication(check(src))

    def test_bounded_fanout_to_leaf_channels_passes(self):
        # Two copies, but to a channel that only delivers: a finite tree.
        src = """
channel leaf(ps : unit, ss : unit, p : ip*udp*blob) is
  (deliver(p); (ps, ss))
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  (OnRemote(leaf, p); OnRemote(leaf, p); (ps, ss))
"""
        report = check_duplication(check(src))
        assert "network" in report.multiplying_channels
        assert "leaf" not in report.multiplying_channels

    def test_fanout_to_forwarding_chain_passes(self):
        # Copies go to a channel that forwards (once) to a deliverer.
        src = """
channel sink(ps : unit, ss : unit, p : ip*udp*blob) is
  (deliver(p); (ps, ss))
channel mid(ps : unit, ss : unit, p : ip*udp*blob) is
  (OnRemote(sink, p); (ps, ss))
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  (OnRemote(mid, p); OnRemote(mid, p); (ps, ss))
"""
        check_duplication(check(src))

    def test_fanout_into_multiplier_rejected(self):
        # mid forwards back to network (which duplicates): exponential.
        src = """
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  (OnRemote(mid, p); OnRemote(mid, p); (ps, ss))
channel mid(ps : unit, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps, ss))
"""
        with pytest.raises(VerificationError, match="exponential"):
            check_duplication(check(src))

    def test_fixpoint_converges(self):
        # A forwarding chain c0 -> c1 -> ... -> deliver: the monotone
        # fix-point settles within c + 1 sweeps, far below the paper's
        # worst-case 2^c schedule (section 2.1), at any length.
        for n in (3, 8, 32):
            hops = [f"channel c{i}(ps : unit, ss : unit, "
                    f"p : ip*udp*blob) is (OnRemote(c{i + 1}, p); (ps, ss))"
                    for i in range(n - 1)]
            last = (f"channel c{n - 1}(ps : unit, ss : unit, "
                    f"p : ip*udp*blob) is (deliver(p); (ps, ss))")
            report = check_duplication(check("\n".join(hops + [last])))
            assert report.fixpoint_iterations <= n + 1
            assert report.multiplying_channels == set()

    def test_emission_in_fun_counted(self):
        src = """
fun send2(p : ip*udp*blob) : unit =
  (OnRemote(network, p); OnRemote(network, p))
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  (send2(p); (ps, ss))
"""
        with pytest.raises(VerificationError, match="exponential"):
            check_duplication(check(src))
