"""The scheduling contract of :mod:`repro.net.sim` (DESIGN §13):
explicit-key posting, the run bounds, context attribution, and the
property experiments rely on — an entity's event keys and entropy draws
do not move when unrelated traffic is added."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.sim import Simulator
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

    def test_max_events_raises_on_runaway(self):
        sim = Simulator(seed=0)

        def storm():
            sim.schedule(0.001, storm)

        sim.schedule(0.001, storm)
        with pytest.raises(RuntimeError, match="did not converge"):
            sim.run(max_events=100)

    @pytest.mark.parametrize("owner", ["controller", "node"])
    def test_network_run_shares_the_contract(self, owner):
        # Network.run is Simulator.run: max_events bounds the whole
        # call, whichever context owns the storm
        net = Network(seed=0)
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
                sim.current_event_key[1]))

        sim.schedule(0.0, outer, context=ctx)
        sim.run()
        assert seen == [ctx.lp]


PORT = 6000
HOSTS_PER_CLUSTER = 3
# a grid, so send times collide on purpose within and across clusters
TIMES = tuple(round(0.01 * i, 2) for i in range(1, 40))


def cluster_a_stream(*, seed, loss_rate, sends, with_b):
    """Two router clusters joined by one link, every access link lossy,
    all traffic cluster-local.  ``sends`` is ``[(cluster, src, dst,
    time)]``; cluster b's are dropped unless ``with_b``.  Returns the
    key-sorted ``(event key, host, payload)`` deliveries of cluster a
    and how many datagrams cluster a sent."""
    net = Network(seed=seed)
    routers = {c: net.add_router(f"{c}r") for c in "ab"}
    hosts = {c: [net.add_host(f"{c}h{i}")
                 for i in range(HOSTS_PER_CLUSTER)] for c in "ab"}
    for c in "ab":
        for host in hosts[c]:
            net.link(host, routers[c], latency=0.001).loss_rate = loss_rate
    net.link(routers["a"], routers["b"], latency=0.01)
    net.finalize()

    stream = []
    socks = {}
    for c in "ab":
        for host in hosts[c]:
            socks[host.name] = sock = net.udp(host).bind(PORT)
            if c == "a":
                def on_datagram(payload, src, src_port, *, host=host):
                    stream.append((net.sim.current_event_key, host.name,
                                   payload))

                sock.on_datagram = on_datagram
    sent_a = 0
    for k, (c, src, dst, when) in enumerate(sends):
        if c == "b" and not with_b:
            continue
        sent_a += c == "a"
        sender, receiver = hosts[c][src], hosts[c][dst]

        def send(*, sock=socks[sender.name], to=receiver.address,
                 payload=f"{sender.name}>{receiver.name}#{k}".encode()):
            sock.sendto(to, PORT, payload)

        net.sim.at(when, send, context=sender.ctx)
    net.run(until=1.0)
    return sorted(stream), sent_a


_sends = st.lists(
    st.tuples(st.sampled_from("ab"),
              st.integers(0, HOSTS_PER_CLUSTER - 1),
              st.integers(0, HOSTS_PER_CLUSTER - 1),
              st.sampled_from(TIMES)).filter(lambda s: s[1] != s[2]),
    min_size=4, max_size=40)


class TestUnrelatedTraffic:
    """What the per-entity contexts buy (and why ``web/*-open`` and
    ``web/*-shed`` cells compare): cluster a's deliveries — which
    datagrams survive the lossy links, at which event keys — are the
    same whether or not cluster b is busy.  Fails if a transmit queue
    draws loss from the shared ``sim.rng``, or if ``schedule`` keys
    events by one simulator-wide counter."""

    def test_cluster_a_does_not_see_cluster_b(self):
        sends = [(c, h, (h + 1 + k % 2) % HOSTS_PER_CLUSTER,
                  TIMES[(7 * k + 3 * h) % len(TIMES)])
                 for c in "ab" for h in range(HOSTS_PER_CLUSTER)
                 for k in range(20)]
        alone, sent = cluster_a_stream(seed=5, loss_rate=0.2,
                                       sends=sends, with_b=False)
        busy, _ = cluster_a_stream(seed=5, loss_rate=0.2, sends=sends,
                                   with_b=True)
        # the drill is not vacuous: the links really lose datagrams
        assert sent == 60 and 20 < len(alone) < sent
        assert busy == alone

    @given(seed=st.integers(0, 2**16),
           loss_rate=st.sampled_from((0.0, 0.1, 0.2, 0.5)),
           sends=_sends)
    @settings(max_examples=40, deadline=None)
    def test_holds_across_seeds_times_and_loss_rates(self, seed,
                                                     loss_rate, sends):
        alone, _ = cluster_a_stream(seed=seed, loss_rate=loss_rate,
                                    sends=sends, with_b=False)
        busy, _ = cluster_a_stream(seed=seed, loss_rate=loss_rate,
                                   sends=sends, with_b=True)
        assert busy == alone
