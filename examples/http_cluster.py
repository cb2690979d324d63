#!/usr/bin/env python3
"""The extensible HTTP server with load balancing (paper §3.2).

Compares four cluster configurations at one load level (figure 8's
operating point): a single server, the PLAN-P gateway over two servers,
the built-in "C" gateway, and two servers with disjoint clients.

Run:  python examples/http_cluster.py
"""

from repro.apps.http import run_http_experiment


def main() -> None:
    n_clients = 8
    results = {}
    for mode in ("single", "asp", "builtin", "disjoint"):
        results[mode] = run_http_experiment(mode=mode,
                                            n_clients=n_clients,
                                            duration=12.0, warmup=3.0)

    print(f"{'configuration':12s} {'throughput':>12s} {'latency':>9s} "
          f"{'balance':>8s}")
    for mode, r in results.items():
        print(f"{mode:12s} {r.figures['throughput_rps']:9.1f} rps "
              f"{r.figures['mean_latency_s'] * 1000:6.1f} ms "
              f"{r.balance_ratio:8.2f}")

    asp = results["asp"].figures["throughput_rps"]
    single = results["single"].figures["throughput_rps"]
    builtin = results["builtin"].figures["throughput_rps"]
    disjoint = results["disjoint"].figures["throughput_rps"]
    print(f"\nASP gateway vs single server: {asp / single:.2f}x "
          f"(paper: 1.75x)")
    print(f"ASP gateway vs disjoint pair:  {asp / disjoint:.2f} "
          f"(paper: ~0.85)")
    print(f"ASP gateway vs built-in C:     {asp / builtin:.2f} "
          f"(paper: 'little or no difference')")


if __name__ == "__main__":
    main()
