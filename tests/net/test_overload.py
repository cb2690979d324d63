"""Overload-control mechanism tests (DESIGN §14).

Covers the two pure mechanisms in :mod:`repro.net.overload` —
Backoff and AdmissionController.
"""

import random

import pytest

from repro.net.overload import AdmissionController, Backoff


class TestBackoff:
    def test_unjittered_is_deterministic(self):
        b = Backoff(initial=0.1, ceiling=1.0, entropy=None)
        assert b.delay() == pytest.approx(0.1)
        assert b.delay() == pytest.approx(0.1)  # delay() draws nothing

    def test_bump_doubles_toward_ceiling(self):
        b = Backoff(initial=0.1, ceiling=0.5, entropy=None)
        delays = []
        for _ in range(5):
            delays.append(b.delay())
            b.bump()
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])
        assert b.attempts == 5

    def test_reset_restores_initial(self):
        b = Backoff(initial=0.1, ceiling=2.0, entropy=None)
        b.bump()
        b.bump()
        assert b.delay() == pytest.approx(0.4)
        b.reset()
        assert b.delay() == pytest.approx(0.1)
        assert b.attempts == 0

    def test_jitter_stays_within_band(self):
        b = Backoff(initial=0.1, ceiling=1.0, jitter=0.5,
                    entropy=random.Random(7))
        for _ in range(200):
            d = b.delay()
            assert 0.05 <= d <= 0.15

    def test_jitter_matches_sim_formula(self):
        # One entropy draw per delay(): the jitter a caller feeding a
        # per-entity stream gets is independent of unrelated traffic.
        b = Backoff(initial=0.2, ceiling=2.0, jitter=0.5,
                    entropy=random.Random(42))
        ref = random.Random(42)
        for _ in range(20):
            expected = 0.2 * (1.0 + 0.5 * (2.0 * ref.random() - 1.0))
            assert b.delay() == pytest.approx(expected)

    def test_same_entropy_same_schedule(self):
        a = Backoff(initial=0.1, ceiling=1.0, entropy=random.Random(3))
        b = Backoff(initial=0.1, ceiling=1.0, entropy=random.Random(3))
        seq_a, seq_b = [], []
        for _ in range(10):
            seq_a.append(a.delay())
            a.bump()
            seq_b.append(b.delay())
            b.bump()
        assert seq_a == seq_b

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            Backoff(initial=0.0, ceiling=1.0)
        with pytest.raises(ValueError):
            Backoff(initial=1.0, ceiling=0.5)
        with pytest.raises(ValueError):
            Backoff(initial=0.1, ceiling=1.0, multiplier=0.5)


class TestAdmissionController:
    def test_burst_then_refusal(self):
        ac = AdmissionController(rate=10.0, burst=3.0)
        admitted = [ac.admit(0.0) for _ in range(5)]
        assert admitted == [True, True, True, False, False]
        assert ac.admitted == 3
        assert ac.refused == 2

    def test_refills_at_rate(self):
        ac = AdmissionController(rate=10.0, burst=2.0)
        assert ac.admit(0.0)
        assert ac.admit(0.0)
        assert not ac.admit(0.0)
        # 0.1 s at 10 tokens/s refills exactly one token
        assert ac.admit(0.1)
        assert not ac.admit(0.1)

    def test_aimd_decrease_and_floor(self):
        ac = AdmissionController(rate=100.0, floor=10.0, decrease=0.5)
        ac.on_overload()
        assert ac.rate == pytest.approx(50.0)
        for _ in range(10):
            ac.on_overload()
        assert ac.rate == pytest.approx(10.0)  # floored

    def test_aimd_increase_and_ceiling(self):
        ac = AdmissionController(rate=99.0, ceiling=100.0, increase=2.0)
        ac.on_healthy()
        assert ac.rate == pytest.approx(100.0)  # ceilinged
        ac.on_healthy()
        assert ac.rate == pytest.approx(100.0)

    def test_rate_clamped_at_construction(self):
        ac = AdmissionController(rate=1e9, floor=1.0, ceiling=500.0)
        assert ac.rate == pytest.approx(500.0)

    def test_stats_dict(self):
        ac = AdmissionController(rate=5.0, burst=1.0)
        ac.admit(0.0)
        ac.admit(0.0)
        assert ac.stats_dict() == {"rate": 5.0, "admitted": 1,
                                   "refused": 1}

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            AdmissionController(floor=0.0)
        with pytest.raises(ValueError):
            AdmissionController(floor=10.0, ceiling=5.0)
        with pytest.raises(ValueError):
            AdmissionController(decrease=1.5)
