"""``obsdump`` — inspect the observability layer from the shell.

    python -m repro.tools.obsdump demo
    python -m repro.tools.obsdump smoke/http-asp --events --events-limit 50
    python -m repro.tools.obsdump smoke/images --json out.json
    python -m repro.tools.obsdump chaos/drill-4 --view lifecycle
    python -m repro.tools.obsdump chaos/upgrade-16 --view lifecycle
    python -m repro.tools.obsdump web/syn-shed --view overload

The argument is ``demo`` or any scenario name ``runx list`` prints.
The scenario runs through the harness registry with a fresh
:class:`~repro.obs.Observability` scope (handed to every experiment
that takes ``obs``), and its metrics snapshot is dumped as sorted JSON
on stdout; ``--events`` additionally prints the structured event log
as JSON lines, at most ``--events-limit`` of them (``demo`` prints
events by default — that is what it is for).

``--view NAME`` prints one of the event-log folds registered beside the
experiment instead of the raw metrics: ``lifecycle`` (chaos, upgrade —
rollout generations, wire-compat vetoes, breaker trips and rollbacks
per node), ``overload`` (web — shed/expired decisions per node and the
shedding ASP's lifecycle verdict).

``--json PATH`` writes ``{"scenario", "metrics", "events", <view>:
fold for every registered view}`` to a file instead — the shape the CI
artifacts use.

``demo`` builds a deliberately eventful little network: an ASP deployed
over the wire, a congested bottleneck link dropping packets, and a
scripted link flap — so ``deploy``, ``drop`` and ``fault`` events all
show up in one run.

The process-wide counters (program cache, interpreter invocations)
appear under ``global.`` in every snapshot dumped here; fuzz campaigns
print theirs with ``python -m repro.tools.fuzzx run --json``
(``fuzz.*``).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..harness import matrix, registry
from ..obs import Observability
from . import at_least


def demo(obs: Observability) -> dict:
    """A small network that deploys, drops and faults; returns its
    metrics snapshot (the events land in ``obs``)."""
    from ..asps import audio_router_asp
    from ..net.topology import Network
    from ..runtime.netdeploy import DeploymentManager, DeploymentService

    net = Network(seed=7, obs=obs)
    manager_host = net.add_host("mgr")
    router = net.add_router("r1")
    sink = net.add_host("sink")
    uplink = net.link(manager_host, router, bandwidth=1e6)
    # A deliberately narrow bottleneck: pushing datagrams through it
    # overruns the 4-packet queue and produces drop events.
    net.link(router, sink, bandwidth=64_000, queue_limit=4)
    net.finalize()

    DeploymentService(net, router)
    manager = DeploymentManager(net, manager_host)
    manager.push(audio_router_asp(), [router.address])

    # Congestion: blast datagrams at the sink through the bottleneck.
    socket = net.udp(manager_host).bind()
    for i in range(40):
        net.sim.at(0.5 + i * 0.001,
                   lambda: socket.sendto(sink.address, 9, b"x" * 512))

    # A link flap mid-run (fault events + reconvergence).
    net.faults.at(1.0, net.faults.link_down, uplink)
    net.faults.at(1.5, net.faults.link_up, uplink)

    net.run(until=3.0)
    return net.metrics_snapshot()


def _dump(doc: object, fp) -> None:
    json.dump(doc, fp, indent=2, sort_keys=True, default=str)
    fp.write("\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.obsdump",
        description="dump metrics snapshots and event logs")
    parser.add_argument("scenario", nargs="?", default="demo",
                        help="'demo' or a scenario name from "
                             "`runx list` (default: demo)")
    parser.add_argument("--view", metavar="NAME",
                        help="print a fold registered beside the "
                             "experiment (lifecycle / overload) "
                             "instead of raw metrics")
    parser.add_argument("--events", action="store_true",
                        help="also print the event log as JSON lines")
    parser.add_argument("--events-limit", type=at_least(0), default=None,
                        metavar="N", help="dump at most N events")
    parser.add_argument("--json", metavar="PATH",
                        help="write {scenario, metrics, events, "
                             "views...} JSON to a file")
    args = parser.parse_args(argv)

    scenario = None
    views = {}
    if args.scenario != "demo":
        scenario = next((s for s in matrix("all")
                         if s.name == args.scenario), None)
        if scenario is None:
            print(f"unknown scenario {args.scenario!r} (see `runx list`)",
                  file=sys.stderr)
            return 2
        views = registry.get(scenario.experiment).views
    if args.view is not None and args.view not in views:
        print(f"{args.scenario} has no view {args.view!r}; registered: "
              f"{sorted(views)}", file=sys.stderr)
        return 2

    obs = Observability()
    if scenario is None:
        metrics = demo(obs)
    else:
        metrics = registry.run(scenario, obs=obs).metrics
    events = [record.to_dict() for record in obs.events.events]
    # the folds see the whole log; --events-limit bounds what is dumped
    folds = {name: fold(events) for name, fold in views.items()}
    shown = events[:args.events_limit]
    show_events = args.events or scenario is None
    if (args.json or show_events) and len(shown) < len(events):
        print(f"... {len(events) - len(shown)} more events",
              file=sys.stderr)

    if args.json:
        with open(args.json, "w") as fp:
            _dump({"scenario": args.scenario, "metrics": metrics,
                   "events": shown, **folds}, fp)
        print(f"wrote {args.json}", file=sys.stderr)
        return 0

    _dump(folds[args.view] if args.view else metrics, sys.stdout)
    if show_events:
        for record in shown:
            sys.stdout.write(json.dumps(record, default=str) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
