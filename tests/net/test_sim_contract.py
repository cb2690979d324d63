"""The formalized scheduling contract of :mod:`repro.net.sim`:
explicit-key posting, the unified run bounds (serial and sharded), and
context attribution."""

import pytest

from repro.net.sim import BEFORE_ANY_LP, Simulator
from repro.net.topology import Network


class TestPost:
    def test_posted_events_sort_by_key(self):
        sim = Simulator(seed=0)
        order = []
        sim.post(1.0, lambda: order.append("b"), lp=2, lseq=0)
        sim.post(1.0, lambda: order.append("a"), lp=1, lseq=5)
        sim.post(1.0, lambda: order.append("c"), lp=2, lseq=1)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_post_interleaves_with_scheduled_events(self):
        # a posted key lands exactly where a local schedule() with the
        # same context would have put it — the boundary guarantee
        sim = Simulator(seed=0)
        ctx = sim.context("txq")
        order = []
        sim.at(1.0, lambda: order.append("local"), context=ctx)
        # the key ctx would draw next, but posted from "outside"
        sim.post(1.0, lambda: order.append("posted"),
                 lp=ctx.lp, lseq=ctx.next_lseq())
        sim.at(1.0, lambda: order.append("later"), context=ctx)
        sim.run()
        assert order == ["local", "posted", "later"]

    def test_post_rejects_past_times(self):
        sim = Simulator(seed=0)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="past"):
            sim.post(0.5, lambda: None, lp=0, lseq=0)


class TestRunBounds:
    def test_until_is_inclusive_and_advances_now(self):
        sim = Simulator(seed=0)
        ran = []
        sim.at(1.0, lambda: ran.append(1.0))
        sim.at(2.0, lambda: ran.append(2.0))
        assert sim.run(until=1.0) == 1
        assert ran == [1.0]
        assert sim.now == 1.0
        assert sim.run(until=5.0) == 1
        assert sim.now == 5.0  # advances past the drained queue

    def test_until_key_is_exclusive(self):
        sim = Simulator(seed=0)
        ran = []
        sim.at(1.0, lambda: ran.append("at-bound"))
        sim.at(0.5, lambda: ran.append("before"))
        assert sim.run(until_key=(1.0, BEFORE_ANY_LP, 0)) == 1
        assert ran == ["before"]
        assert sim.now == 1.0
        sim.run()
        assert ran == ["before", "at-bound"]

    def test_max_events_raises_on_runaway(self):
        sim = Simulator(seed=0)

        def storm():
            sim.schedule(0.001, storm)

        sim.schedule(0.001, storm)
        with pytest.raises(RuntimeError, match="did not converge"):
            sim.run(max_events=100)

    @pytest.mark.parametrize("segments,owner", [
        (1, "controller"), (1, "node"), (2, "controller"), (2, "node")])
    def test_network_run_shares_the_contract(self, segments, owner):
        # max_events bounds the whole run() call — controller and
        # segments together — so the guard fires sharded iff it fires
        # serially, whichever simulator owns the storm
        net = Network(seed=0, shard_segments=segments)
        a, b = net.add_host("a"), net.add_host("b")
        net.link(a, b, latency=0.001)
        net.finalize()
        sim, ctx = (net.sim, None) if owner == "controller" \
            else (a.sim, a.ctx)

        def storm():  # re-arms itself every 10 ms
            sim.schedule(0.01, storm, context=ctx)

        sim.schedule(0.01, storm, context=ctx)
        net.run(until=0.505, max_events=50)  # exactly 50 due: no error
        with pytest.raises(RuntimeError,
                           match="did not converge within 100 events"):
            net.run(until=10.0, max_events=100)


class TestContextAttribution:
    def test_context_names_fold_in_the_lp(self):
        sim = Simulator(seed=0)
        ctx1 = sim.context("node:a")
        ctx2 = sim.context("node:b")
        assert ctx1.lp != ctx2.lp
        assert ctx1.name == f"node:a#{ctx1.lp}"

    def test_entropy_is_seed_and_name_stable(self):
        draws1 = Simulator(seed=9).context("node:a").entropy.random()
        draws2 = Simulator(seed=9).context("node:a").entropy.random()
        other = Simulator(seed=9).context("node:b").entropy.random()
        assert draws1 == draws2
        assert draws1 != other

    def test_ambient_context_inherited_by_nested_schedules(self):
        sim = Simulator(seed=0)
        ctx = sim.context("worker")
        seen = []

        def outer():
            sim.schedule(0.1, lambda: seen.append(
                sim.current_context.name))

        sim.schedule(0.0, outer, context=ctx)
        sim.run()
        assert seen == [ctx.name]
