"""Scale benchmark: the sharded core on a 10k-node topology.

Runs the ring-of-clusters scale workload (DESIGN §13) serially and
through the windowed shard runner at 4 segments — one process either
way, so the second row prices the window protocol; it is not a
speed-up — and asserts:

1. the delivery stream (sha256 over the key-sorted stream) and the
   event count are identical on both rows, and the small-configuration
   records are byte-identical between serial and sharded at 2 and 4
   segments;
2. every packet sent is delivered (the topology is provisioned, so a
   loss would mean a routing or boundary bug, not congestion).

Results land in ``BENCH_scale.json`` at the repo root: one row per
segment count (nodes, packets, events, wall seconds, packets/sec,
windows).  The serial row is the one ROADMAP gates.
"""

import json
import time
from pathlib import Path

import pytest

from repro.experiments.scale import run_scale_experiment

from .conftest import print_table, shape_check

RESULTS_FILE = Path(__file__).parent.parent / "BENCH_scale.json"

#: the 10k-node configuration (100 clusters x (1 router + 99 hosts))
SCALE_PARAMS = dict(n_clusters=100, hosts_per_cluster=100,
                    packets_per_host=10, interval=0.02)
SMALL_PARAMS = dict(n_clusters=8, hosts_per_cluster=4,
                    packets_per_host=6)
SEGMENTS = (1, 4)
SEED = 5


def canonical(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode()


class TestScaleBench:
    @pytest.fixture(scope="class")
    def runs(self):
        rows = []
        for segments in SEGMENTS:
            start = time.perf_counter()
            result = run_scale_experiment(
                seed=SEED, shard_segments=segments, **SCALE_PARAMS)
            wall = time.perf_counter() - start
            figs = result.figures
            rows.append({
                "segments": segments,
                "nodes": figs["nodes"],
                "sent": figs["sent"],
                "delivered": figs["delivered"],
                "events": figs["events"],
                "windows": figs["windows"],
                "wall_s": round(wall, 2),
                "packets_per_s": round(figs["delivered"] / wall, 1),
                "delivery_sha256": figs["delivery_sha256"],
            })

        # small-config record identity, serial vs sharded
        serial = run_scale_experiment(seed=SEED, shard_segments=1,
                                      **SMALL_PARAMS)
        identity = {
            "records_identical": all(
                canonical(run_scale_experiment(
                    seed=SEED, shard_segments=k,
                    **SMALL_PARAMS).record())
                == canonical(serial.record())
                for k in (2, 4)),
        }

        base = rows[0]["packets_per_s"]
        print_table(
            "Sharded core: 10k nodes, packets/sec by segment count",
            ["segments", "windows", "wall s", "packets/s", "vs serial"],
            [[r["segments"], r["windows"], r["wall_s"],
              r["packets_per_s"],
              f"{r['packets_per_s'] / base:.2f}x"] for r in rows])

        doc = {"scale": {
            "params": SCALE_PARAMS,
            "seed": SEED,
            "rows": rows,
            "identity": identity,
        }}
        RESULTS_FILE.write_text(json.dumps(doc, indent=2,
                                           sort_keys=True) + "\n")
        return rows, identity

    def test_delivery_identical_across_segments(self, benchmark, runs):
        # Asserted unconditionally: identity must hold at any segment
        # count on any machine.
        shape_check(benchmark)
        rows, _ = runs
        shas = {r["delivery_sha256"] for r in rows}
        assert len(shas) == 1, "delivery stream diverged"
        assert len({r["events"] for r in rows}) == 1
        for r in rows:
            assert r["nodes"] == 10_000
            assert r["delivered"] == r["sent"], r

    def test_small_config_byte_identical(self, benchmark, runs):
        shape_check(benchmark)
        _, identity = runs
        assert identity["records_identical"]
