#!/usr/bin/env python3
"""Point-to-point to multipoint MPEG delivery (paper §3.3).

Three viewers on one segment watch the same live stream.  With the
monitor and capture ASPs deployed, only the first opens a real server
connection; the other two discover it through the monitor and capture
the stream off the segment.  Server egress shrinks to one stream while
every viewer keeps the full frame rate.

Run:  python examples/mpeg_multipoint.py
"""

from repro.apps.mpeg import run_mpeg_experiment


def main() -> None:
    n_clients = 3
    with_asps = run_mpeg_experiment(use_asps=True, n_clients=n_clients,
                                    duration=15.0, warmup=2.0)
    without = run_mpeg_experiment(use_asps=False, n_clients=n_clients,
                                  duration=15.0, warmup=2.0)

    for result in (without, with_asps):
        label = "with ASPs" if result.params["use_asps"] else "no ASPs"
        fig = result.figures
        rates = ", ".join(f"{r:.1f}" for r in fig["per_client_rate"])
        print(f"{label:10s} server sessions: {fig['server_sessions']}  "
              f"uplink: {fig['uplink_bytes'] / 1e6:5.2f} MB  "
              f"client fps: [{rates}]  modes: {fig['modes']}")

    saved = 1 - (with_asps.figures["uplink_bytes"]
                 / without.figures["uplink_bytes"])
    print(f"\nupstream traffic saved by sharing: {saved:.0%}")
    print(f"no traffic-rate degradation: "
          f"{with_asps.all_clients_at_full_rate}")


if __name__ == "__main__":
    main()
