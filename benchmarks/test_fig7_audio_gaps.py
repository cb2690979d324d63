"""Figure 7: silent periods during playback, with vs without adaptation.

Paper: graphs of the number of silent periods in various configurations,
showing "that the adaptation does, in fact, reduce the number of gaps in
audio playback".

Reproduced shape: under light load neither configuration gaps; as the
load saturates the segment, the unadapted stream loses frames and gaps
repeatedly while the adapted stream shrinks below the available
bandwidth and keeps playing.
"""

import pytest

from repro.apps.audio import run_gap_sweep

from .conftest import print_table, shape_check

LOADS = [800_000, 1_500_000, 1_900_000]
DURATION = 25.0


@pytest.fixture(scope="module")
def sweep():
    return run_gap_sweep(load_levels_bps=LOADS, duration=DURATION)


def test_fig7_gap_table(benchmark, sweep):
    shape_check(benchmark)
    rows = []
    for load in LOADS:
        row = sweep[load]
        rows.append([f"{load / 1e6:.1f} Mbit/s",
                     row["without_adaptation"], row["with_adaptation"],
                     row["without_frames"], row["with_frames"]])
    print_table("Figure 7: silent periods under constant load "
                f"({DURATION:.0f} s runs)",
                ["offered load", "gaps (no ASP)", "gaps (ASP)",
                 "frames (no ASP)", "frames (ASP)"], rows)

    heavy = sweep[LOADS[-1]]
    assert heavy["without_adaptation"] > 10
    assert heavy["with_adaptation"] <= heavy["without_adaptation"] // 5

    light = sweep[LOADS[0]]
    assert light["without_adaptation"] == 0
    assert light["with_adaptation"] == 0


def test_fig7_adaptation_preserves_frames(benchmark, sweep):
    shape_check(benchmark)
    heavy = sweep[LOADS[-1]]
    assert heavy["with_frames"] > heavy["without_frames"]


def test_fig7_benchmark(benchmark):
    benchmark.group = "fig7 experiment"
    benchmark.pedantic(
        lambda: run_gap_sweep(load_levels_bps=[1_900_000],
                              duration=10.0),
        rounds=1, iterations=1)
