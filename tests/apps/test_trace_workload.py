"""Open-loop workload generation tests (DESIGN §14).

The flash-crowd and flood generators must be (a) deterministic from
their own entropy stream, (b) shaped as documented (spike multiplier,
hot-document collapse, diurnal modulation), and (c) hermetic — drawing
nothing from the shared simulator rng, so adding a workload to a
scenario cannot perturb any other entity's draws (why cells of one
matrix that differ in a workload compare).
"""

import random

import pytest

from repro.apps.http.trace import (flood_times, generate_trace,
                                   open_loop_arrivals)
from repro.net import Network


@pytest.fixture(scope="module")
def trace():
    return generate_trace(2000, n_files=200, seed=3)


class TestOpenLoopArrivals:
    def test_deterministic_from_seed(self, trace):
        a = open_loop_arrivals(trace, start=0.0, duration=10.0,
                               base_rate=20.0, seed=5)
        b = open_loop_arrivals(trace, start=0.0, duration=10.0,
                               base_rate=20.0, seed=5)
        assert a == b
        c = open_loop_arrivals(trace, start=0.0, duration=10.0,
                               base_rate=20.0, seed=6)
        assert a != c

    def test_deterministic_from_entropy_stream(self, trace):
        a = open_loop_arrivals(trace, start=0.0, duration=10.0,
                               base_rate=20.0,
                               entropy=random.Random("crowd/1"))
        b = open_loop_arrivals(trace, start=0.0, duration=10.0,
                               base_rate=20.0,
                               entropy=random.Random("crowd/1"))
        assert a == b

    def test_arrivals_sorted_within_bounds(self, trace):
        arr = open_loop_arrivals(trace, start=2.0, duration=8.0,
                                 base_rate=30.0, seed=1)
        times = [r.at for r in arr]
        assert times == sorted(times)
        assert all(2.0 <= t < 10.0 for t in times)
        assert all(r.path in trace.sizes for r in arr)

    def test_base_rate_approximated(self, trace):
        arr = open_loop_arrivals(trace, start=0.0, duration=100.0,
                                 base_rate=25.0,
                                 diurnal_amplitude=0.0, seed=2)
        assert len(arr) == pytest.approx(2500, rel=0.15)

    def test_spike_multiplies_rate(self, trace):
        arr = open_loop_arrivals(trace, start=0.0, duration=30.0,
                                 base_rate=10.0,
                                 diurnal_amplitude=0.0,
                                 spike_start=10.0, spike_end=20.0,
                                 spike_multiplier=8.0, seed=4)
        before = sum(1 for r in arr if r.at < 10.0)
        during = sum(1 for r in arr if 10.0 <= r.at < 20.0)
        assert during > 4 * before

    def test_hot_fraction_collapses_onto_one_document(self, trace):
        hot = sorted(trace.sizes)[0]
        arr = open_loop_arrivals(trace, start=0.0, duration=20.0,
                                 base_rate=50.0,
                                 spike_start=5.0, spike_end=15.0,
                                 spike_multiplier=5.0,
                                 hot_fraction=0.9, seed=7)
        in_spike = [r for r in arr if 5.0 <= r.at < 15.0]
        hot_share = (sum(1 for r in in_spike if r.path == hot)
                     / len(in_spike))
        assert hot_share > 0.8
        outside = [r for r in arr if not 5.0 <= r.at < 15.0]
        cold_share = (sum(1 for r in outside if r.path == hot)
                      / len(outside))
        assert cold_share < 0.5  # stationary Zipf, no collapse

    def test_diurnal_modulation(self, trace):
        # period 10 s, amplitude 0.9: the first half-period peaks, the
        # second troughs
        arr = open_loop_arrivals(trace, start=0.0, duration=10.0,
                                 base_rate=100.0,
                                 diurnal_amplitude=0.9,
                                 diurnal_period=10.0, seed=8)
        peak = sum(1 for r in arr if r.at < 5.0)
        trough = sum(1 for r in arr if r.at >= 5.0)
        assert peak > 2 * trough

    def test_validates_parameters(self, trace):
        with pytest.raises(ValueError):
            open_loop_arrivals(trace, start=0.0, duration=0.0,
                               base_rate=10.0)
        with pytest.raises(ValueError):
            open_loop_arrivals(trace, start=0.0, duration=1.0,
                               base_rate=0.0)
        with pytest.raises(ValueError):
            open_loop_arrivals(trace, start=0.0, duration=1.0,
                               base_rate=10.0, diurnal_amplitude=1.0)


class TestFloodTimes:
    def test_deterministic(self):
        a = flood_times(start=1.0, duration=5.0, rate=100.0,
                        entropy=random.Random("flood/a"))
        b = flood_times(start=1.0, duration=5.0, rate=100.0,
                        entropy=random.Random("flood/a"))
        assert a == b

    def test_rate_and_bounds(self):
        times = flood_times(start=2.0, duration=50.0, rate=40.0,
                            entropy=random.Random(1))
        assert times == sorted(times)
        assert all(2.0 <= t < 52.0 for t in times)
        assert len(times) == pytest.approx(2000, rel=0.15)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            flood_times(start=0.0, duration=0.0, rate=10.0,
                        entropy=random.Random(0))
        with pytest.raises(ValueError):
            flood_times(start=0.0, duration=1.0, rate=0.0,
                        entropy=random.Random(0))


class TestEntropyHermetic:
    """Workload generation must never touch the shared simulator rng."""

    def test_arrivals_draw_nothing_from_sim_rng(self, trace):
        net = Network(seed=17)
        before = net.sim.rng.getstate()
        open_loop_arrivals(trace, start=0.0, duration=10.0,
                           base_rate=50.0, spike_start=2.0,
                           spike_end=8.0, spike_multiplier=5.0,
                           hot_fraction=0.8,
                           entropy=net.sim.entropy("crowd/h0"))
        flood_times(start=0.0, duration=10.0, rate=100.0,
                    entropy=net.sim.entropy("flood/h1"))
        assert net.sim.rng.getstate() == before

    def test_entropy_streams_are_memoized_and_independent(self):
        net = Network(seed=17)
        a = net.sim.entropy("stream/a")
        assert net.sim.entropy("stream/a") is a  # one stream per name
        # identically-named streams on an identically-seeded sim agree,
        # regardless of what other streams drew in between
        other = Network(seed=17)
        other.sim.entropy("stream/b").random()
        assert (other.sim.entropy("stream/a").random()
                == net.sim.entropy("stream/a").random())

    def test_trace_generation_is_numpy_only(self):
        # generate_trace seeds its own numpy generator; the stdlib
        # global rng and a fresh sim rng both stay untouched
        state = random.getstate()
        net = Network(seed=3)
        sim_state = net.sim.rng.getstate()
        generate_trace(1000, seed=3)
        assert random.getstate() == state
        assert net.sim.rng.getstate() == sim_state

    def test_request_stream_deterministic(self, trace):
        a = trace.request_stream(start=5)
        b = trace.request_stream(start=5)
        assert [next(a) for _ in range(50)] == [next(b)
                                               for _ in range(50)]
