"""Content-addressed program cache: one front-end pass per source,
per-node engine instantiation, shared artifacts where safe."""

import pytest

from repro.asps.mpeg import mpeg_monitor_asp
from repro.jit import pipeline
from repro.jit.pipeline import ProgramCache
from repro.lang import ParseError, VerificationError
from repro.net import Network
from repro.net.packet import tcp_packet
from repro.runtime import Deployment
from repro.runtime.netdeploy import DeploymentManager, DeploymentService

FORWARD = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
           "(OnRemote(network, p); (ps + 1, ss))")

WITH_VALS = ("val me : host = thisHost()\n" + FORWARD)

BAD = ("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
       "(OnRemote(network, p); OnRemote(network, p); (ps, ss))")


def chain(n_routers):
    net = Network(seed=7)
    a = net.add_host("a")
    routers = [net.add_router(f"r{i}") for i in range(n_routers)]
    b = net.add_host("b")
    previous = a
    for router in routers:
        net.link(previous, router)
        previous = router
    net.link(previous, b)
    net.finalize()
    return net, a, routers, b


class TestDeploymentAmortization:
    @pytest.mark.parametrize("backend", ["interpreter", "closure",
                                         "source"])
    def test_n_node_deploy_runs_frontend_once(self, backend):
        """The headline property: deploying one ASP to N nodes parses
        and verifies exactly once and instantiates N engines."""
        n = 5
        net, a, routers, b = chain(n)
        cache = ProgramCache()
        record = Deployment(cache=cache).install(
            FORWARD, routers, backend=backend, source_name="fw")
        # One central front-end pass (the miss); each of the N node
        # loads then hits the cache.
        assert cache.stats.frontend_misses == 1
        assert cache.stats.frontend_hits == n
        assert cache.stats.verify_misses == 1
        # The analyses ran once; each node's load asked the same gate
        # and was answered from the cached verdict.
        assert cache.stats.verify_hits == n
        assert cache.stats.loads == n
        assert record.cache_hits == cache.stats.total_hits
        assert record.source_sha == ProgramCache.digest(FORWARD)
        # Every node got its own channel-state storage.
        states = [id(r.planp.channel_states) for r in routers]
        assert len(set(states)) == n

    def test_deployed_nodes_all_process_traffic(self):
        net, a, routers, b = chain(3)
        Deployment(cache=ProgramCache()).install(FORWARD, routers,
                                                 backend="source")
        got = []
        b.delivery_taps.append(lambda p: got.append(p))
        a.ip_send(tcp_packet(a.address, b.address, 1, 80, b"x"))
        net.run()
        assert len(got) == 1
        for router in routers:
            assert router.planp.stats.packets_processed == 1
            assert router.planp.protocol_state == 1

    def test_rejection_cached_and_consistent(self):
        cache = ProgramCache()
        net, a, routers, b = chain(2)
        deployment = Deployment(cache=cache)
        with pytest.raises(VerificationError) as first:
            deployment.install(BAD, routers)
        with pytest.raises(VerificationError) as second:
            deployment.install(BAD, routers)
        assert cache.stats.verify_misses == 1
        assert cache.stats.verify_hits == 1  # second verdict from cache
        assert first.value.analysis == second.value.analysis
        # Rejected centrally: no node even grew a PLAN-P layer.
        assert all(r.planp is None or r.planp.loaded is None
                   for r in routers)

    def test_n_node_deploy_hashes_and_counts_lines_once(self, monkeypatch):
        """The digest and the line count belong to the source, not to
        the node: an N-node install takes each once (``ProgramCache``
        counters are unchanged by that — see the test above)."""
        digests, counts = [], []
        digest, count = ProgramCache.digest, pipeline.count_source_lines
        monkeypatch.setattr(
            ProgramCache, "digest",
            staticmethod(lambda src: digests.append(src) or digest(src)))
        monkeypatch.setattr(
            pipeline, "count_source_lines",
            lambda src: counts.append(src) or count(src))
        net, a, routers, b = chain(4)
        record = Deployment(cache=ProgramCache()).install(
            WITH_VALS, routers, source_name="fw")
        assert digests == [WITH_VALS] and counts == [WITH_VALS]
        assert record.source_sha == digest(WITH_VALS)
        for router in routers:
            assert router.planp.loaded.source_sha == record.source_sha
            assert router.planp.loaded.source_lines == 2

    def test_over_nested_program_touches_no_node(self):
        net, a, routers, b = chain(2)
        bomb = ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
                + "(" * 90 + "(ps, ss)" + ")" * 90)
        with pytest.raises(ParseError, match="nested deeper"):
            Deployment(cache=ProgramCache()).install(bomb, routers)
        assert all(r.planp is None for r in routers)

    def test_load_program_without_hints_still_hashes_and_counts(self):
        loaded = pipeline.load_program(WITH_VALS, cache=ProgramCache())
        assert loaded.source_sha == ProgramCache.digest(WITH_VALS)
        assert loaded.source_lines == 2


class TestArtifactSharing:
    def test_val_free_closure_engine_is_shared(self):
        """A program without top-level vals compiles to an immutable
        closure engine, shared across nodes; mutable state stays in the
        layer, so sharing is observation-safe."""
        net, a, routers, b = chain(2)
        cache = ProgramCache()
        Deployment(cache=cache).install(FORWARD, routers,
                                        backend="closure")
        r0, r1 = routers
        assert r0.planp.engine is r1.planp.engine
        assert cache.stats.engine_misses == 1
        assert cache.stats.engine_hits == 1
        a.ip_send(tcp_packet(a.address, b.address, 1, 80, b"x"))
        net.run()
        assert r0.planp.protocol_state == 1
        assert r1.planp.protocol_state == 1

    def test_closure_engine_with_vals_is_not_shared(self):
        """thisHost() in a val bakes node identity into the closure
        engine, so each node must get its own specialization."""
        net, a, routers, b = chain(2)
        cache = ProgramCache()
        Deployment(cache=cache).install(WITH_VALS, routers,
                                        backend="closure")
        r0, r1 = routers
        assert r0.planp.engine is not r1.planp.engine
        assert cache.stats.engine_hits == 0

    def test_source_artifact_reused_with_vals(self):
        """The source backend's emitted module is ctx-independent even
        with vals (globals resolve through a per-node namespace), so the
        bytecode is compiled once and the engines differ per node."""
        net, a, routers, b = chain(3)
        cache = ProgramCache()
        Deployment(cache=cache).install(WITH_VALS, routers,
                                        backend="source")
        r0, r1, r2 = routers
        assert cache.stats.engine_misses == 1
        assert cache.stats.engine_hits == 2
        assert r0.planp.engine is not r1.planp.engine
        assert r0.planp.engine.artifact is r1.planp.engine.artifact
        assert r1.planp.engine.artifact is r2.planp.engine.artifact

    def test_disabled_cache_shares_nothing(self):
        net, a, routers, b = chain(2)
        cache = ProgramCache(max_entries=0)
        Deployment(cache=cache).install(FORWARD, routers,
                                        backend="closure")
        r0, r1 = routers
        assert r0.planp.engine is not r1.planp.engine
        assert cache.stats.frontend_hits == 0
        # Central pass plus one full front end per node: all misses.
        assert cache.stats.frontend_misses == 3

    def test_fifo_eviction_bounds_entries(self):
        cache = ProgramCache(max_entries=2)
        sources = [f"-- v{i}\n{FORWARD}" for i in range(4)]
        for source in sources:
            cache.frontend(source)
        assert len(cache._frontend) == 2
        # Oldest entries were evicted; newest are present.
        assert ProgramCache.digest(sources[3]) in cache._frontend
        assert ProgramCache.digest(sources[0]) not in cache._frontend


class TestLoadProgramFlags:
    def test_cache_hit_flag(self):
        cache = ProgramCache()
        cold = pipeline.load_program(FORWARD, cache=cache)
        warm = pipeline.load_program(FORWARD, cache=cache)
        assert not cold.cache_hit
        assert warm.cache_hit
        assert cold.source_sha == warm.source_sha \
            == ProgramCache.digest(FORWARD)

    def test_default_cache_is_module_global(self):
        pipeline.PROGRAM_CACHE.clear()
        before = pipeline.PROGRAM_CACHE.stats.loads
        pipeline.load_program(FORWARD)
        assert pipeline.PROGRAM_CACHE.stats.loads == before + 1
        pipeline.PROGRAM_CACHE.clear()


class TestNetDeployCache:
    @staticmethod
    def _assert_one_cold_install(n_routers, source):
        pipeline.PROGRAM_CACHE.clear()
        net = Network(seed=41)
        admin = net.add_host("admin")
        routers = [net.add_router(f"r{i}") for i in range(n_routers)]
        endpoint = net.add_host("endpoint")
        for router in routers:
            net.link(admin, router, bandwidth=100e6)
        net.link(routers[-1], endpoint, bandwidth=100e6)
        net.finalize()
        services = [DeploymentService(net, r) for r in routers]
        manager = DeploymentManager(net, admin)
        xfer = manager.push(source, [r.address for r in routers])
        net.run(until=5.0)
        assert manager.all_ok(xfer)
        statuses = manager.status(xfer)
        hits = [s.cache_hit for s in statuses.values()]
        assert hits.count(False) == 1  # exactly one cold install
        assert hits.count(True) == len(routers) - 1
        assert all(s.installed == [xfer] for s in services)
        pipeline.PROGRAM_CACHE.clear()

    def test_push_acks_carry_cache_hit_flag(self):
        self._assert_one_cold_install(4, FORWARD)

    def test_hits_cover_all_but_the_first_of_16_routers(self):
        # a shipped ASP this time: the Figure 3 connection monitor
        self._assert_one_cold_install(16, mpeg_monitor_asp())
