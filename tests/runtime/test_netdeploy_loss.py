"""Deployment under injected faults: loss, crashes, unreachable nodes.

The reliability contract under test: no push stays ``ok=None`` past its
deadline under any loss rate, recovery is observable through the
retry/loss counters, and a restarted node comes back running its ASP
(re-installed from its layer's manifest through the program cache).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jit.pipeline import ProgramCache
from repro.net import Network
from repro.runtime import Deployment
from repro.runtime.netdeploy import (PUSH_DEADLINE_S, DeploymentManager,
                                     DeploymentService)

FORWARD = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
           "(OnRemote(network, p); (ps + 1, ss))")

COUNTER = ("channel network(ps : int, ss : unit, p : ip*udp*blob) is "
           "(OnRemote(network, p); (ps + 2, ss))")

#: A multi-segment program: padding spreads it over several TCP
#: segments so crashes land mid-transfer.
BIG = "\n".join(f"-- padding line {i} {'x' * 60}"
                for i in range(40)) + "\n" + FORWARD


def star_net(n_routers, seed, loss_rate=0.0):
    net = Network(seed=seed)
    admin = net.add_host("admin")
    routers = [net.add_router(f"r{i}") for i in range(n_routers)]
    for router in routers:
        net.link(admin, router, bandwidth=100e6).loss_rate = loss_rate
    net.finalize()
    services = [DeploymentService(net, r) for r in routers]
    manager = DeploymentManager(net, admin)
    return net, routers, services, manager


class TestDeploymentUnderLoss:
    @settings(max_examples=12, deadline=None)
    @given(loss=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 16))
    def test_every_push_reaches_terminal_state(self, loss, seed):
        net, routers, services, manager = star_net(3, seed,
                                                   loss_rate=loss)
        xfer = manager.push(FORWARD, [r.address for r in routers])
        assert manager.await_converged(xfer)
        statuses = manager.status(xfer)
        deadline = max(s.deadline for s in statuses.values())
        assert net.now <= deadline + 0.1
        for status in statuses.values():
            # Terminal, always: OK or FAILED with a reason — never None.
            assert status.ok is not None
            if status.ok is False:
                assert status.detail in ("timeout", "unreachable")

    def test_lossless_push_needs_no_retries(self):
        net, routers, services, manager = star_net(3, seed=11)
        xfer = manager.push(FORWARD, [r.address for r in routers])
        assert manager.await_converged(xfer)
        assert manager.all_ok(xfer)
        counters = manager.counters(xfer)
        assert counters["retries"] == 0
        assert counters["restarts"] == 0

    def test_moderate_loss_converges_with_observable_retries(self):
        net, routers, services, manager = star_net(3, seed=12,
                                                   loss_rate=0.3)
        xfer = manager.push(BIG, [r.address for r in routers])
        assert manager.await_converged(xfer)
        assert manager.all_ok(xfer)
        counters = manager.counters(xfer)
        # loss was repaired, visibly: TCP retransmissions
        assert counters["retries"] > 0

    def test_same_seed_same_outcome(self):
        def run(seed):
            net, routers, services, manager = star_net(
                3, seed, loss_rate=0.35)
            xfer = manager.push(BIG, [r.address for r in routers])
            manager.await_converged(xfer)
            return [(s.ok, s.detail, s.retries, s.restarts)
                    for s in manager.status(xfer).values()]

        assert run(99) == run(99)


class TestDeadlines:
    def test_unreachable_target_fails_with_reason(self):
        net, routers, services, manager = star_net(2, seed=21)
        net.faults.crash(routers[0])
        xfer = manager.push(FORWARD, [r.address for r in routers])
        assert manager.await_converged(xfer)
        statuses = manager.status(xfer)
        assert statuses[routers[0].address].ok is False
        assert statuses[routers[0].address].detail == "unreachable"
        assert statuses[routers[1].address].ok is True

    def test_late_ok_does_not_resurrect_failed_push(self):
        # Exchange longer than the deadline: the push fails by timeout,
        # then the node's OK limps in — it must not be believed.  Over
        # a link with a one-way delay of 0.29 deadlines the connection
        # opens at 2 delays, the source lands (and installs) at 3 and
        # the OK would return at 4: the deadline splits them.
        net = Network(seed=22)
        admin, router = net.add_host("admin"), net.add_router("r0")
        net.link(admin, router, bandwidth=100e6,
                 latency=0.29 * PUSH_DEADLINE_S)
        net.finalize()
        services = [DeploymentService(net, router)]
        routers = [router]
        manager = DeploymentManager(net, admin)
        xfer = manager.push(FORWARD, [routers[0].address])
        net.run(until=2 * PUSH_DEADLINE_S)
        status = manager.status(xfer)[routers[0].address]
        assert status.ok is False
        assert status.detail == "timeout"
        assert services[0].installed == [xfer]  # the node did install
        # The deadline aborted the connection: the late OK found no one.
        assert net.tcp(net["admin"]).open_connections == 0

    def test_nobody_listening_is_refused_at_once(self):
        # A node that runs TCP but no deployment service answers the
        # SYN with a RST: terminal, not a reconnect spin.
        net = Network(seed=24)
        admin, bare = net.add_host("admin"), net.add_router("bare")
        net.link(admin, bare, bandwidth=100e6)
        net.finalize()
        net.tcp(bare)
        manager = DeploymentManager(net, admin)
        xfer = manager.push(FORWARD, [bare.address])
        assert manager.await_converged(xfer)
        status = manager.status(xfer)[bare.address]
        assert (status.ok, status.detail, status.restarts) \
            == (False, "refused", 0)
        assert net.now < 0.1  # long before the 10 s deadline

    def test_repush_recovers_a_failed_push(self):
        from repro.jit.pipeline import load_program

        load_program(FORWARD)  # prime the content-addressed cache
        net, routers, services, manager = star_net(1, seed=23)
        net.faults.crash(routers[0])
        xfer = manager.push(FORWARD, [routers[0].address])
        assert manager.await_converged(xfer)
        assert manager.status(xfer)[routers[0].address].ok is False
        net.faults.restart(routers[0])
        repushed = manager.repush(xfer)
        assert repushed == [routers[0].address]
        assert manager.await_converged(xfer)
        assert manager.all_ok(xfer)
        # The re-push re-verified through the content-addressed cache.
        assert manager.status(xfer)[routers[0].address].cache_hit is True


class TestCrashDrill:
    def drill(self, seed):
        """Crash a router mid-push, restart it 2 simulated seconds
        later; the push must still converge and the restarted node must
        come back running the same ASP set (per the manifest)."""
        net, routers, services, manager = star_net(2, seed)
        r0, r1 = routers
        s0, s1 = services

        first = manager.push(COUNTER, [r0.address, r1.address])
        assert manager.await_converged(first) and manager.all_ok(first)

        second = manager.push(BIG, [r0.address, r1.address])
        net.faults.at(net.now + 0.0015, net.faults.crash, "r0")
        net.faults.at(net.now + 2.0015, net.faults.restart, "r0")
        assert manager.await_converged(second)
        return net, (r0, r1), (s0, s1), manager, first, second

    def test_drill_converges_and_reinstalls(self):
        net, (r0, r1), (s0, s1), manager, first, second = self.drill(31)
        statuses = manager.status(second)
        assert all(s.terminal for s in statuses.values())
        assert manager.all_ok(second)
        # The crashed node's connection died with it; the manager
        # reconnected at least once.
        assert statuses[r0.address].restarts >= 1
        # On restart, the service replayed the layer's manifest: the
        # first ASP was re-installed before the second push completed.
        assert s0.reinstalled == [ProgramCache.digest(COUNTER)]
        # Both nodes end up with the same record of what should run...
        assert r0.planp.manifest.source_sha \
            == r1.planp.manifest.source_sha == ProgramCache.digest(BIG)
        # ...and identically running programs.
        assert r0.planp.current_sha == r1.planp.current_sha is not None

    def snapshot(self, seed):
        net, routers, services, manager, first, second = self.drill(seed)
        return ((first, second),
                [(s.ok, s.detail, s.retries, s.restarts)
                 for s in manager.status(second).values()],
                list(net.faults.log))

    def test_drill_is_reproducible_under_a_fixed_seed(self):
        assert self.snapshot(31) == self.snapshot(31)

    def test_drill_does_not_depend_on_process_history(self):
        # Transfer ids and everything on the wire must be a function
        # of the manager's own pushes — not of how many pushes other
        # managers made earlier in this process.
        fresh = self.snapshot(31)
        net, routers, services, other = star_net(1, seed=77)
        for _ in range(5):
            xfer = other.push(COUNTER, [routers[0].address])
            assert other.await_converged(xfer)
        assert fresh[0] == ("asp1", "asp2")
        assert self.snapshot(31) == fresh

    def test_uninstalled_program_stays_gone_after_a_crash(self):
        net, routers, services, manager = star_net(1, seed=35)
        xfer = manager.push(COUNTER, [routers[0].address])
        assert manager.await_converged(xfer) and manager.all_ok(xfer)
        Deployment().uninstall(routers)
        net.faults.crash("r0")
        net.faults.restart("r0")
        assert routers[0].planp.loaded is None
        assert services[0].reinstalled == []

    def test_crash_without_restart_times_out(self):
        net, routers, services, manager = star_net(2, seed=33)
        r0, r1 = routers
        xfer = manager.push(BIG, [r0.address, r1.address])
        net.faults.at(net.now + 0.0015, net.faults.crash, "r0")
        assert manager.await_converged(xfer)
        statuses = manager.status(xfer)
        assert statuses[r0.address].ok is False
        # Routing reconverged away from the crashed node, so by the
        # deadline the manager had no route left to it.
        assert statuses[r0.address].detail == "unreachable"
        assert statuses[r1.address].ok is True
