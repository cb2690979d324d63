"""Observability overhead benchmark (this implementation's perf work).

The observability layer's contract is that the per-packet hot path pays
nothing it did not opt into: existing stat holders stay plain ``int``
fields read by snapshot-time callbacks, and per-packet instruments hide
behind ``None``/empty-list guards.  Two claims are measured:

1. the dispatch fast path on a fully wired network (metrics registry,
   drop taps, event log — the shipping default) is within 5% of the
   same loop on a bare node with no observability attached at all,
   measured in the same process run so machine noise cancels;
2. the opt-in per-packet profiling histogram
   (:meth:`PlanPLayer.enable_profiling`) has a *measured, recorded*
   cost — it is deliberately not free, which is why it is opt-in.

Results land in ``BENCH_obs.json`` at the repo root, including the
ratio against the stored ``BENCH_dispatch.json`` fast-path baseline
(recorded for trend-watching, not asserted — cross-run machine noise
at ~1.4 us/packet would make that flaky).
"""

import json
import time
from pathlib import Path

import pytest

from repro.net import Network
from repro.net.node import Host
from repro.net.packet import tcp_packet, udp_packet
from repro.net.sim import Simulator
from repro.runtime import PlanPLayer

from .conftest import print_table, shape_check

RESULTS_FILE = Path(__file__).parent.parent / "BENCH_obs.json"
DISPATCH_BASELINE_FILE = Path(__file__).parent.parent \
    / "BENCH_dispatch.json"

DISPATCH_PROGRAM = """
channel network(ps : int, ss : unit, p : ip*udp*host*int) is
  (deliver(p); (ps + 1, ss))
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
channel network(ps : int, ss : unit, p : ip*tcp*char*blob) is
  (OnRemote(network, p); (ps + 1, ss))
channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
"""

MAX_OVERHEAD_PCT = 5.0


def _packets(a_addr, b_addr):
    return [
        udp_packet(a_addr, b_addr, 1, 2, bytes(8)),
        udp_packet(a_addr, b_addr, 1, 2, bytes(100)),
        tcp_packet(a_addr, b_addr, 1, 80, b"G" + bytes(40)),
        tcp_packet(a_addr, b_addr, 1, 80, b""),
    ]


def _wired_layer():
    """A layer on a router inside a Network: registry callbacks
    registered, node and link drop taps wired, event log live."""
    net = Network(seed=11)
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    net.link(a, r)
    net.link(r, b)
    net.finalize()
    layer = PlanPLayer(r)
    layer.install(DISPATCH_PROGRAM)
    return layer, _packets(a.address, b.address)


def _bare_layer():
    """The same layer on a node with no observability attached — no
    registry, no taps, ``node.obs`` is None."""
    node = Host(Simulator(seed=11), "bare")
    layer = PlanPLayer(node)
    layer.install(DISPATCH_PROGRAM)
    return layer


def _dispatch_once(layer, batch) -> float:
    start = time.perf_counter()
    for p in batch:
        decl, decoder, _plan = layer.core.lookup(p)
        decoder(p)
    return time.perf_counter() - start


def _time_process(layer, batch) -> float:
    """Best-of-5 us/packet for the full wants()/process() pair."""
    def once():
        start = time.perf_counter()
        for p in batch:
            if layer.wants(p, None):
                layer.process(p, None)
        return time.perf_counter() - start

    once()  # warm up
    return min(once() for _ in range(5)) / len(batch) * 1e6


class TestDispatchObsOverhead:
    @pytest.fixture(scope="class")
    def overhead(self):
        wired, packets = _wired_layer()
        bare = _bare_layer()
        batch = packets * 250
        # Alternate rounds between the two configurations so frequency
        # scaling and cache state drift hit both sides alike; compare
        # the best round of each.
        for layer in (wired, bare):  # warm up
            _dispatch_once(layer, batch)
        wired_s = bare_s = float("inf")
        for _ in range(7):
            wired_s = min(wired_s, _dispatch_once(wired, batch))
            bare_s = min(bare_s, _dispatch_once(bare, batch))
        wired_us = wired_s / len(batch) * 1e6
        bare_us = bare_s / len(batch) * 1e6
        pct = (wired_us / bare_us - 1.0) * 100.0

        stored = None
        if DISPATCH_BASELINE_FILE.exists():
            data = json.loads(DISPATCH_BASELINE_FILE.read_text())
            stored = data.get("dispatch", {}).get(
                "fastpath_us_per_packet")
        vs_stored = wired_us / stored if stored else None

        print_table(
            "Dispatch fast path: bare node vs fully wired network",
            ["configuration", "us/packet"],
            [["bare (no observability)", f"{bare_us:.3f}"],
             ["wired (registry + taps + events)", f"{wired_us:.3f}"],
             ["overhead", f"{pct:+.2f}%"],
             ["vs stored BENCH_dispatch baseline",
              f"{vs_stored:.2f}x" if vs_stored else "n/a"]])
        _merge_results({"dispatch_with_obs": {
            "bare_us_per_packet": round(bare_us, 4),
            "wired_us_per_packet": round(wired_us, 4),
            "overhead_pct": round(pct, 2),
            "stored_baseline_us": stored,
            "vs_stored_baseline":
                round(vs_stored, 3) if vs_stored else None,
        }})
        return pct

    def test_overhead_under_5_pct(self, benchmark, overhead):
        shape_check(benchmark)
        assert overhead < MAX_OVERHEAD_PCT


class TestOptInProfilingCost:
    @pytest.fixture(scope="class")
    def costs(self):
        layer, packets = _wired_layer()
        batch = packets * 250
        plain_us = _time_process(layer, batch)
        layer.enable_profiling()
        profiled_us = _time_process(layer, batch)
        layer.profile = None
        pct = (profiled_us / plain_us - 1.0) * 100.0
        print_table(
            "Full process path: opt-in per-packet profiling",
            ["configuration", "us/packet"],
            [["profile off (default)", f"{plain_us:.3f}"],
             ["profile on (histogram per packet)",
              f"{profiled_us:.3f}"],
             ["cost of opting in", f"{pct:+.1f}%"]])
        _merge_results({"profiling_optin": {
            "plain_us_per_packet": round(plain_us, 4),
            "profiled_us_per_packet": round(profiled_us, 4),
            "overhead_pct": round(pct, 2),
        }})
        return plain_us, profiled_us

    def test_profiling_recorded(self, benchmark, costs):
        shape_check(benchmark)
        plain_us, profiled_us = costs
        # No 5% bound here — opt-in profiling is allowed to cost; the
        # claim is only that it was measured and is bounded sanely.
        assert profiled_us < plain_us * 3.0


def _merge_results(update: dict) -> None:
    data = {}
    if RESULTS_FILE.exists():
        data = json.loads(RESULTS_FILE.read_text())
    data.update(update)
    RESULTS_FILE.write_text(json.dumps(data, indent=2) + "\n")
