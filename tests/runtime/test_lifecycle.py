"""Lifecycle manager tests: history, rollout gate, breaker, rollback."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jit.pipeline import ProgramCache
from repro.lang import ParseError, VerificationError
from repro.net import Network
from repro.net.packet import udp_packet
from repro.runtime import (BreakerState, CircuitBreaker, Deployment,
                           LifecycleManager, LifecyclePolicy, RolloutState)
from repro.runtime.lifecycle import MAX_EXTENSIONS
from repro.runtime.netdeploy import DeploymentManager, DeploymentService

GOOD = ("channel network(ps : int, ss : unit, p : ip*udp*blob) is "
        "(OnRemote(network, p); (ps + 1, ss))")

GOOD_V2 = ("channel network(ps : int, ss : unit, p : ip*udp*blob) is "
           "(OnRemote(network, p); (ps + 2, ss))")

#: Raises DivideByZero whenever the first payload byte is 0 mod 5 —
#: rejected by the delivery analysis, so it ships with verify=False.
BAD = """
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  let
    val body : blob = #3 p
    val seq : int = blobByte(body, 0)
    val poison : int = 1 / (seq mod 5)
  in
    (OnRemote(network, p); (ps + poison - poison + 1, ss))
  end
"""

UNSAFE = ("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
          "(OnRemote(network, p); OnRemote(network, p); (ps, ss))")


def chain_net(n_routers=4, seed=5):
    net = Network(seed=seed)
    src = net.add_host("src")
    routers = [net.add_router(f"r{i}") for i in range(n_routers)]
    dst = net.add_host("dst")
    prev = src
    for r in routers:
        net.link(prev, r, bandwidth=100e6, latency=0.0002)
        prev = r
    net.link(prev, dst, bandwidth=100e6, latency=0.0002)
    net.finalize()
    return net, src, routers, dst


def traffic(net, src, dst, tick=0.02):
    """Start a rotating-payload-byte UDP flow (deterministic)."""
    counter = [0]

    def send():
        src.ip_send(udp_packet(src.address, dst.address, 5000, 7000,
                               bytes([counter[0] % 256])))
        counter[0] += 1
        net.sim.schedule(tick, send)

    net.sim.schedule(0.0, send)
    return counter


def manager_for(net, routers, **overrides):
    defaults = dict(canary_fraction=0.25, health_window=0.5,
                    error_budget=3, budget_window=0.5, cooldown=0.3,
                    probation_packets=10, rollback_after_trips=2)
    defaults.update(overrides)
    manager = LifecycleManager(net, deployment=Deployment(),
                               policy=LifecyclePolicy(**defaults))
    manager.manage(*routers)
    return manager


# ---------------------------------------------------------------------------
# circuit breaker (pure mechanism)
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, budget=3, window=1.0, probation=5):
        now = [0.0]
        breaker = CircuitBreaker(budget=budget, window=window,
                                 probation=probation,
                                 clock=lambda: now[0])
        return breaker, now

    def test_trips_above_budget_within_window(self):
        breaker, now = self.make(budget=3, window=1.0)
        for i in range(3):
            now[0] = i * 0.1
            assert breaker.record_error() is False
        now[0] = 0.35
        assert breaker.record_error() is True
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1

    def test_old_errors_expire(self):
        breaker, now = self.make(budget=3, window=1.0)
        for i in range(3):
            now[0] = i * 0.1
            breaker.record_error()
        # The next error comes after the first three have aged out.
        now[0] = 2.0
        assert breaker.record_error() is False
        assert breaker.state is BreakerState.CLOSED

    def test_open_absorbs_inflight_errors(self):
        breaker, now = self.make(budget=0)
        assert breaker.record_error() is True
        assert breaker.record_error() is False  # already open
        assert breaker.trips == 1

    def test_half_open_error_retrips(self):
        breaker, now = self.make(budget=3)
        breaker._trip(0.0)
        breaker.half_open()
        assert breaker.record_error() is True
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2

    def test_half_open_probation_closes(self):
        breaker, now = self.make(budget=3, probation=4)
        breaker._trip(0.0)
        breaker.half_open()
        assert [breaker.record_ok() for _ in range(4)] == \
            [False, False, False, True]
        assert breaker.state is BreakerState.CLOSED

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(budget=-1, window=1.0, probation=1,
                           clock=lambda: 0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(budget=1, window=0.0, probation=1,
                           clock=lambda: 0.0)


class TestBreakerWindowProperties:
    """The satellite property tests: the sliding window is exact."""

    @given(budget=st.integers(min_value=1, max_value=8),
           window=st.floats(min_value=0.1, max_value=10.0),
           bursts=st.lists(st.integers(min_value=0, max_value=8),
                           min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_bursts_below_budget_never_trip(self, budget, window,
                                            bursts):
        """Bursts of ≤ budget errors, separated by more than a full
        window, never trip the breaker."""
        now = [0.0]
        breaker = CircuitBreaker(budget=budget, window=window,
                                 probation=1, clock=lambda: now[0])
        t = 0.0
        for burst in bursts:
            for _ in range(min(burst, budget)):
                now[0] = t
                assert breaker.record_error() is False
            t += window * 1.5  # strictly outside any shared window
        assert breaker.state is BreakerState.CLOSED
        assert breaker.trips == 0

    @given(budget=st.integers(min_value=0, max_value=8),
           window=st.floats(min_value=0.1, max_value=10.0),
           over=st.integers(min_value=1, max_value=5),
           spread=st.floats(min_value=0.0, max_value=0.99))
    @settings(max_examples=60, deadline=None)
    def test_sustained_burst_above_budget_trips_within_window(
            self, budget, window, over, spread):
        """budget + over errors inside one window always trip, at or
        before the (budget+1)-th error — i.e. within one window of the
        first error."""
        now = [0.0]
        breaker = CircuitBreaker(budget=budget, window=window,
                                 probation=1, clock=lambda: now[0])
        n = budget + over
        step = (window * spread) / max(n - 1, 1)
        tripped_at = None
        for i in range(n):
            now[0] = i * step
            if breaker.record_error():
                tripped_at = i
                break
        assert tripped_at == budget  # the first over-budget error
        assert breaker.state is BreakerState.OPEN
        assert now[0] <= window  # within one window of the first error

    @given(times=st.lists(st.floats(min_value=0.0, max_value=50.0),
                          min_size=1, max_size=40),
           budget=st.integers(min_value=0, max_value=6),
           window=st.floats(min_value=0.25, max_value=8.0))
    @settings(max_examples=60, deadline=None)
    def test_trip_point_matches_brute_force(self, times, budget,
                                            window):
        """The breaker trips at exactly the first error whose trailing
        closed [t - window, t] interval holds more than budget errors
        (the docstring's promised inclusive window)."""
        times = sorted(times)
        now = [0.0]
        breaker = CircuitBreaker(budget=budget, window=window,
                                 probation=1, clock=lambda: now[0])
        expected = None
        for i, t in enumerate(times):
            in_window = sum(1 for u in times[:i + 1]
                            if t - window <= u <= t)
            if in_window > budget:
                expected = i
                break
        actual = None
        for i, t in enumerate(times):
            now[0] = t
            if breaker.record_error():
                actual = i
                break
        assert actual == expected

    @given(budget=st.integers(min_value=1, max_value=6),
           window=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]),
           start=st.sampled_from([0.0, 1.0, 2.5, 10.0]))
    @settings(max_examples=60, deadline=None)
    def test_error_exactly_window_old_still_counts(self, budget,
                                                   window, start):
        """The exact-boundary bug: ``budget`` errors at ``t`` plus one
        at exactly ``t + window`` is budget+1 errors inside the closed
        window, so it must trip (the sampled floats make the boundary
        arithmetic exact)."""
        now = [start]
        breaker = CircuitBreaker(budget=budget, window=window,
                                 probation=1, clock=lambda: now[0])
        for _ in range(budget):
            assert breaker.record_error() is False
        now[0] = start + window  # exactly window seconds later
        assert breaker.record_error() is True
        assert breaker.state is BreakerState.OPEN

    @given(budget=st.integers(min_value=1, max_value=6),
           window=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]))
    @settings(max_examples=60, deadline=None)
    def test_error_just_past_window_expires(self, budget, window):
        """One float tick past the boundary the old errors age out, so
        the same sequence must NOT trip."""
        import math
        now = [0.0]
        breaker = CircuitBreaker(budget=budget, window=window,
                                 probation=1, clock=lambda: now[0])
        for _ in range(budget):
            assert breaker.record_error() is False
        now[0] = math.nextafter(window, math.inf)
        assert breaker.record_error() is False
        assert breaker.state is BreakerState.CLOSED


# ---------------------------------------------------------------------------
# install history
# ---------------------------------------------------------------------------


class TestHistory:
    def test_generations_are_numbered(self):
        net, src, routers, dst = chain_net(2)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True, source_name="v1")
        manager.rollout(GOOD_V2, routers, force=True, source_name="v2")
        for r in routers:
            nl = manager.nodes[r.name]
            assert [g.number for g in nl.generations] == [1, 2]
            assert nl.current.loaded.source_sha == ProgramCache.digest(GOOD_V2)

    def test_superseded_generation_keeps_snapshot(self):
        net, src, routers, dst = chain_net(2)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True)
        traffic(net, src, dst)
        net.run(until=0.5)
        processed = routers[0].planp.stats.packets_processed
        assert processed > 0
        manager.rollout(GOOD_V2, routers, force=True)
        nl = manager.nodes[routers[0].name]
        snap = nl.generations[0].snapshot
        assert snap is not None
        assert snap.protocol_state == processed  # ps counted packets

    def test_manage_adopts_preinstalled_program(self):
        net, src, routers, dst = chain_net(1)
        deployment = Deployment()
        deployment.install(GOOD, [routers[0]])
        manager = LifecycleManager(net, deployment=deployment)
        (nl,) = manager.manage(routers[0])
        assert nl.current is not None
        assert nl.current.loaded.source_sha == ProgramCache.digest(GOOD)

    def test_verification_failure_reaches_no_node(self):
        net, src, routers, dst = chain_net(2)
        manager = manager_for(net, routers)
        with pytest.raises(VerificationError):
            manager.rollout(UNSAFE, routers)
        assert all(manager.nodes[r.name].current is None for r in routers)
        assert all(r.planp.loaded is None for r in routers)

    def test_verified_install_is_stamped_verified_everywhere(self):
        """One gate: the per-node load carries the caller's ``verify``
        and is answered from the cached verdict, so no stamp lies and
        no analysis runs twice."""
        net, src, routers, dst = chain_net(3)
        cache = ProgramCache()
        manager = LifecycleManager(net, deployment=Deployment(cache=cache))
        manager.manage(*routers)
        record = manager.deployment.install(GOOD, routers, verify=True)
        assert record.verified and record.report.passed
        for r in routers:
            assert r.planp.loaded.verified
            assert manager.nodes[r.name].current.loaded.verified
        assert cache.stats.verify_misses == 1


# ---------------------------------------------------------------------------
# staged rollout
# ---------------------------------------------------------------------------


class TestRollout:
    def test_healthy_canary_promotes(self):
        net, src, routers, dst = chain_net(4)
        manager = manager_for(net, routers)
        traffic(net, src, dst)
        rollout = manager.rollout(GOOD, routers, source_name="good")
        assert rollout.state is RolloutState.CANARY
        assert rollout.canary == ["r0"]
        assert routers[0].planp.loaded is not None
        assert routers[1].planp.loaded is None
        net.run(until=2.0)
        assert rollout.state is RolloutState.PROMOTED
        assert all(r.planp.loaded is not None for r in routers)

    def test_bad_canary_aborts_and_rolls_back(self):
        net, src, routers, dst = chain_net(4)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True)
        traffic(net, src, dst)
        net.run(until=0.5)
        rollout = manager.rollout(BAD, routers, verify=False,
                                  source_name="bad")
        net.run(until=3.0)
        assert rollout.state is RolloutState.ABORTED
        assert rollout.reason
        good_sha = ProgramCache.digest(GOOD)
        # Canary back on generation 1; the rest never saw the bad one.
        for r in routers:
            nl = manager.nodes[r.name]
            assert nl.current.loaded.source_sha == good_sha
            assert not nl.quarantined
        assert manager.aborted == 1

    def test_unparseable_unverified_rollout_stages_nothing(self):
        """The front end runs before staging whatever ``verify`` says:
        source that does not parse reaches no node and leaves no
        rollout and no ``rollout`` event behind."""
        net, src, routers, dst = chain_net(4)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True)
        rollouts = list(manager.rollouts)
        events = [e for e in net.obs.events.events if e.kind == "rollout"]
        with pytest.raises(ParseError):
            manager.rollout("channel network(", routers, verify=False)
        assert manager.rollouts == rollouts
        again = [e for e in net.obs.events.events if e.kind == "rollout"]
        assert again == events
        good_sha = ProgramCache.digest(GOOD)
        assert all(manager.nodes[r.name].current.loaded.source_sha == good_sha
                   for r in routers)

    def test_silent_canary_aborts_after_extensions(self):
        net, src, routers, dst = chain_net(4)
        manager = manager_for(net, routers)
        # No traffic at all: the gate must extend, then refuse to
        # promote a program nothing has exercised.
        rollout = manager.rollout(GOOD, routers)
        net.run(until=5.0)
        assert rollout.state is RolloutState.ABORTED
        assert "packets" in rollout.reason
        assert rollout.extensions == MAX_EXTENSIONS


# ---------------------------------------------------------------------------
# breaker orchestration: quarantine, half-open, rollback
# ---------------------------------------------------------------------------


class TestQuarantine:
    def test_trip_quarantines_and_reverts_to_standard_ip(self):
        net, src, routers, dst = chain_net(2)
        manager = manager_for(net, routers, rollback_after_trips=99)
        manager.rollout(BAD, routers, verify=False, force=True)
        delivered = []
        dst.delivery_taps.append(lambda p: delivered.append(p))
        traffic(net, src, dst)
        net.run(until=0.4)
        assert manager.trips >= 1
        assert manager.quarantined_nodes()
        # Quarantined nodes keep forwarding as plain IP routers.
        before = len(delivered)
        net.run(until=0.5)
        assert len(delivered) > before

    def test_half_open_retrial_recovers_when_errors_stop(self):
        net, src, routers, dst = chain_net(1)
        manager = manager_for(net, routers, error_budget=2,
                              probation_packets=5,
                              rollback_after_trips=99)
        manager.rollout(BAD, routers, verify=False, force=True)
        nl = manager.nodes[routers[0].name]
        counter = traffic(net, src, dst)
        net.run(until=0.4)
        assert nl.quarantined
        # Stop the poisonous payload bytes: from here on, every first
        # byte is 1 (1 mod 5 != 0 — the bad ASP no longer errors).
        counter[0] = 1

        def clamp():
            counter[0] = 1
            net.sim.schedule(0.01, clamp)

        net.sim.schedule(0.0, clamp)
        net.run(until=2.0)
        assert manager.half_opens >= 1
        assert manager.closes >= 1
        assert not nl.quarantined
        assert nl.breaker.state is BreakerState.CLOSED
        assert routers[0].planp.loaded is not None

    def test_repeated_trips_trigger_fleet_rollback(self):
        net, src, routers, dst = chain_net(4)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True)
        traffic(net, src, dst)
        net.run(until=0.5)
        manager.rollout(BAD, routers, verify=False, force=True)
        net.run(until=6.0)
        assert manager.rollbacks >= 1
        good_sha = ProgramCache.digest(GOOD)
        for r in routers:
            nl = manager.nodes[r.name]
            assert nl.current.loaded.source_sha == good_sha
            assert not nl.quarantined
            assert nl.rolled_back  # the bad generation is audited
        assert not manager.quarantined_nodes()

    def test_rollback_without_previous_generation_leaves_plain_ip(self):
        net, src, routers, dst = chain_net(2)
        manager = manager_for(net, routers)
        # The bad ASP is generation 1 — there is nothing to roll back
        # to, so rollback must land the nodes on standard processing.
        manager.rollout(BAD, routers, verify=False, force=True)
        traffic(net, src, dst)
        net.run(until=6.0)
        assert not manager.quarantined_nodes()
        for r in routers:
            assert manager.nodes[r.name].current is None
            assert r.planp.loaded is None
            assert not manager.nodes[r.name].quarantined

    def test_operator_rollback(self):
        net, src, routers, dst = chain_net(2)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True)
        manager.rollout(GOOD_V2, routers, force=True)
        rolled = manager.rollback(ProgramCache.digest(GOOD_V2))
        assert sorted(rolled) == ["r0", "r1"]
        good_sha = ProgramCache.digest(GOOD)
        assert all(manager.nodes[r.name].current.loaded.source_sha == good_sha
                   for r in routers)

    def test_rollback_restores_snapshot_state(self):
        net, src, routers, dst = chain_net(1)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True)
        traffic(net, src, dst)
        net.run(until=0.5)
        layer = routers[0].planp
        processed = layer.protocol_state
        assert processed > 0
        manager.rollout(GOOD_V2, routers, force=True)
        manager.rollback(ProgramCache.digest(GOOD_V2))
        # Generation 1 resumes exactly where it left off.
        assert layer.protocol_state == processed
        assert layer.loaded.source_sha == ProgramCache.digest(GOOD)


# ---------------------------------------------------------------------------
# wire-compatibility veto gate
# ---------------------------------------------------------------------------

#: Same transport, but a 4-byte int field inserted before the tail —
#: overlapping admission with a different layout, so gen-1 and gen-2
#: nodes would misread each other's packets.
INCOMPAT = ("channel network(ps : int, ss : unit, p : ip*udp*int*blob)"
            " is (OnRemote(network, p); (ps + 1, ss))")


class TestWireVeto:
    def test_incompatible_rollout_vetoed_before_canary(self):
        net, src, routers, dst = chain_net(4)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True, source_name="v1")
        rollout = manager.rollout(INCOMPAT, routers, source_name="v2")
        assert rollout.state is RolloutState.ABORTED
        assert rollout.reason.startswith("wire-incompatible:")
        assert manager.vetoes == 1
        # Vetoed before any install: every node still runs gen 1 and
        # never saw the candidate.
        for r in routers:
            nl = manager.nodes[r.name]
            assert len(nl.generations) == 1
            assert nl.current.loaded.source_sha != rollout.sha
        assert rollout.wire_verdicts  # one verdict per running gen
        actions = [e.data.get("action")
                   for e in net.obs.events.events if e.kind == "rollout"]
        assert "veto" in actions
        assert "canary" not in actions

    def test_veto_event_carries_verdict(self):
        net, src, routers, dst = chain_net(2)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True)
        manager.rollout(INCOMPAT, routers)
        (veto,) = [e for e in net.obs.events.events if e.kind == "rollout"
                   if e.data.get("action") == "veto"]
        assert "incompatible" in veto.data["verdict"]
        assert veto.data["nodes"] == 2

    def test_force_overrides_veto(self):
        net, src, routers, dst = chain_net(2)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True)
        rollout = manager.rollout(INCOMPAT, routers, force=True)
        assert rollout.state is RolloutState.PROMOTED
        assert manager.vetoes == 0
        assert all(manager.nodes[r.name].current.loaded.source_sha
                   == rollout.sha for r in routers)

    def test_policy_can_disable_wire_check(self):
        net, src, routers, dst = chain_net(4)
        manager = manager_for(net, routers, wire_check=False)
        manager.rollout(GOOD, routers, force=True)
        rollout = manager.rollout(INCOMPAT, routers)
        assert rollout.state is RolloutState.CANARY
        assert manager.vetoes == 0

    def test_compatible_rollout_proceeds_to_canary(self):
        net, src, routers, dst = chain_net(4)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True)
        rollout = manager.rollout(GOOD_V2, routers)
        assert rollout.state is RolloutState.CANARY
        assert rollout.wire_verdicts == {
            ProgramCache.digest(GOOD)[:12]: "compatible"}
        assert manager.vetoes == 0

    def test_empty_fleet_first_install_is_not_checked(self):
        net, src, routers, dst = chain_net(4)
        manager = manager_for(net, routers)
        rollout = manager.rollout(GOOD, routers)
        assert rollout.state is RolloutState.CANARY
        assert rollout.wire_verdicts == {}


# ---------------------------------------------------------------------------
# rollback(sha) audit: absent generations, contained restore failures
# ---------------------------------------------------------------------------


class TestRollbackAudit:
    def test_sha_absent_everywhere_is_clean_noop(self):
        net, src, routers, dst = chain_net(2)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True)
        rolled = manager.rollback("0" * 64)
        assert rolled == []
        good_sha = ProgramCache.digest(GOOD)
        assert all(manager.nodes[r.name].current.loaded.source_sha == good_sha
                   for r in routers)
        skips = [e for e in net.obs.events.events if e.kind == "rollback"
                 if e.data.get("action") == "skip"]
        assert len(skips) == 1
        assert skips[0].data["nodes"] == 0

    def test_sha_absent_on_one_node_skips_it(self):
        net, src, routers, dst = chain_net(2)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True)
        manager.rollout(GOOD_V2, [routers[0]], force=True)
        v2_sha = ProgramCache.digest(GOOD_V2)
        rolled = manager.rollback(v2_sha)
        assert rolled == ["r0"]
        good_sha = ProgramCache.digest(GOOD)
        assert manager.nodes["r0"].current.loaded.source_sha == good_sha
        assert manager.nodes["r1"].current.loaded.source_sha == good_sha
        assert len(manager.nodes["r1"].generations) == 1  # untouched
        skips = [e for e in net.obs.events.events if e.kind == "rollback"
                 if e.data.get("action") == "skip"]
        assert [e.node for e in skips] == ["r1"]
        assert skips[0].data["current"] == good_sha[:12]

    def test_restore_failure_contained_per_node(self, monkeypatch):
        net, src, routers, dst = chain_net(3)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True)
        manager.rollout(GOOD_V2, routers, force=True)
        original = LifecycleManager._restore

        def failing(self, nl, gen):
            if nl.node.name == "r1":
                raise RuntimeError("disk on fire")
            return original(self, nl, gen)

        monkeypatch.setattr(LifecycleManager, "_restore", failing)
        rolled = manager.rollback(ProgramCache.digest(GOOD_V2))
        # The failing node is contained; the rest of the fleet rolls.
        assert rolled == ["r0", "r2"]
        good_sha = ProgramCache.digest(GOOD)
        assert manager.nodes["r0"].current.loaded.source_sha == good_sha
        assert manager.nodes["r2"].current.loaded.source_sha == good_sha
        # The failed node reverted to standard IP with an emptied,
        # audited history — no half-rolled mixed state.
        nl = manager.nodes["r1"]
        assert nl.current is None
        assert nl.layer.loaded is None
        assert not nl.quarantined
        failures = [e for e in net.obs.events.events if e.kind == "rollback"
                    if e.data.get("action") == "node-failed"]
        assert [e.node for e in failures] == ["r1"]
        assert "disk on fire" in failures[0].data["error"]


# ---------------------------------------------------------------------------
# reinstall-after-quarantine hygiene (satellite 2)
# ---------------------------------------------------------------------------


class TestCleanReinstall:
    def test_uninstall_clears_all_program_state(self):
        net, src, routers, dst = chain_net(1)
        deployment = Deployment()
        deployment.install(GOOD, [routers[0]])
        traffic(net, src, dst)
        net.run(until=0.3)
        layer = routers[0].planp
        assert layer.channel_states and layer.protocol_state
        layer.uninstall()
        assert layer.channel_states == {}
        assert layer.protocol_state is None
        assert layer.loaded is None

    def test_reinstall_after_quarantine_starts_clean(self):
        net, src, routers, dst = chain_net(1)
        manager = manager_for(net, routers, rollback_after_trips=99,
                              cooldown=60.0)  # stay quarantined
        manager.rollout(BAD, routers, verify=False, force=True)
        traffic(net, src, dst)
        net.run(until=0.4)
        layer = routers[0].planp
        assert manager.nodes[routers[0].name].quarantined
        assert layer.channel_states == {}  # quarantine dropped state
        assert layer.protocol_state is None
        # A fresh install starts from the program's own initial state —
        # nothing leaks from the quarantined incarnation.
        manager.rollout(GOOD, routers, force=True)
        assert layer.protocol_state == 0
        assert not manager.nodes[routers[0].name].quarantined
        assert len(layer.channel_states) == 1
        layer.uninstall()
        manager.rollout(GOOD_V2, routers, force=True)
        # Exactly the new program's one channel — no stale entries.
        assert len(layer.channel_states) == 1
        assert layer.protocol_state == 0

    def test_same_program_reinstall_during_cooldown_is_a_retrial(self):
        """Any install ends a quarantine: the quarantined program put
        back during its cool-down runs on probation (HALF_OPEN), so its
        next error trips the breaker again and uninstalls it.  An OPEN
        breaker left under a running program would absorb every error
        and never trip again."""
        net, src, routers, dst = chain_net(1)
        manager = manager_for(net, routers, rollback_after_trips=99,
                              cooldown=60.0)  # no retrial of its own
        manager.rollout(BAD, routers, verify=False, force=True)
        traffic(net, src, dst)
        net.run(until=0.4)
        nl = manager.nodes[routers[0].name]
        assert nl.quarantined and manager.trips == 1
        manager.deployment.install(BAD, routers, verify=False)
        assert nl.breaker.state is BreakerState.HALF_OPEN
        assert not nl.quarantined
        assert [g.number for g in nl.generations] == [1]
        layer = routers[0].planp
        errors = layer.stats.runtime_errors
        net.run(until=0.8)
        assert layer.stats.runtime_errors == errors + 1
        assert manager.trips == 2 and nl.quarantined
        assert layer.loaded is None

    def test_quarantined_layer_ignores_traffic(self):
        net, src, routers, dst = chain_net(1)
        manager = manager_for(net, routers, rollback_after_trips=99,
                              cooldown=60.0)
        manager.rollout(BAD, routers, verify=False, force=True)
        traffic(net, src, dst)
        net.run(until=0.4)
        layer = routers[0].planp
        assert manager.nodes[routers[0].name].quarantined
        processed = layer.stats.packets_processed
        net.run(until=0.8)
        # Quarantine gate: no further ASP processing happens.
        assert layer.stats.packets_processed == processed


# ---------------------------------------------------------------------------
# crash recovery: the layer's manifest is the one record a restart replays
# ---------------------------------------------------------------------------


def wire_managed(**overrides):
    """One router that learns programs over the wire (so a restart
    replays its manifest) under a lifecycle manager."""
    net, src, routers, dst = chain_net(1)
    DeploymentService(net, routers[0])
    pusher = DeploymentManager(net, src)
    manager = manager_for(net, routers, **overrides)

    def push(source, **kwargs):
        xfer = pusher.push(source, [routers[0].address], **kwargs)
        assert pusher.await_converged(xfer) and pusher.all_ok(xfer)

    return net, src, routers[0], dst, manager, push


class TestCrashRecovery:
    def test_rolled_back_generation_stays_gone_after_a_crash(self):
        net, src, r0, dst, manager, push = wire_managed()
        push(GOOD)
        push(GOOD_V2)
        assert manager.rollback(ProgramCache.digest(GOOD_V2)) == ["r0"]
        net.faults.crash(r0)
        net.faults.restart(r0)
        good, v2 = ProgramCache.digest(GOOD), ProgramCache.digest(GOOD_V2)
        nl = manager.nodes[r0.name]
        assert r0.planp.current_sha == good
        assert [(g.number, g.loaded.source_sha)
                for g in nl.generations] == [(1, good)]
        assert [g.loaded.source_sha for g in nl.rolled_back] == [v2]

    def quarantine_drill(self, crash):
        """BAD trips the breaker at ~0.1 s; optionally crash + restart
        inside the 1 s cool-down.  Returns what the manager then did."""
        net, src, r0, dst, manager, push = wire_managed(cooldown=1.0)
        push(BAD, verify=False)
        start = net.now
        traffic(net, src, dst)
        net.run(until=start + 0.41)
        nl = manager.nodes[r0.name]
        assert nl.quarantined and manager.trips == 1
        if crash:
            net.faults.crash(r0)
            net.faults.restart(r0)
        # Still cooling down: standard IP, whatever the node went
        # through, until the manager acts.
        errors = r0.planp.stats.runtime_errors
        net.run(until=start + 0.9)
        assert r0.planp.loaded is None and nl.quarantined
        assert r0.planp.stats.runtime_errors == errors
        net.run(until=start + 6.0)
        settled = r0.planp.stats.runtime_errors
        net.run(until=start + 8.0)
        assert r0.planp.stats.runtime_errors == settled
        return (manager.trips, manager.half_opens, manager.rollbacks,
                nl.quarantined, nl.current, r0.planp.loaded, settled)

    def test_quarantine_holds_across_a_crash(self):
        crashed = self.quarantine_drill(crash=True)
        # One half-open retrial, a second trip, then rollback to plain
        # IP — exactly what happens without the crash.
        assert crashed == self.quarantine_drill(crash=False)
        assert crashed[:6] == (2, 1, 1, False, None, None)


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


class TestObservability:
    def test_lifecycle_metrics_in_snapshot(self):
        net, src, routers, dst = chain_net(2)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True)
        snap = net.obs.snapshot()
        assert snap["lifecycle.managed_nodes"] == 2
        assert snap["lifecycle.promoted"] == 1
        assert snap["lifecycle.quarantined_nodes"] == 0

    def test_event_kinds_emitted(self):
        net, src, routers, dst = chain_net(4)
        manager = manager_for(net, routers)
        manager.rollout(GOOD, routers, force=True)
        traffic(net, src, dst)
        net.run(until=0.5)
        manager.rollout(BAD, routers, verify=False, force=True)
        net.run(until=6.0)
        kinds = {e.kind for e in net.obs.events.events}
        assert {"rollout", "quarantine", "rollback"} <= kinds
        actions = {(e.kind, e.data.get("action"))
                   for e in net.obs.events.events}
        assert ("rollout", "force-promote") in actions
        assert ("quarantine", "trip") in actions
        assert ("rollback", "done") in actions
