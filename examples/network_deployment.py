#!/usr/bin/env python3
"""Deploying ASPs over the network itself (paper section 5's "protocol
management functionalities, such as ASP deployment").

An administration host pushes a PLAN-P program to three routers; each
router verifies it locally (late checking) before installing.  A second,
unsafe program is rejected by every router.

Run:  python examples/network_deployment.py
"""

from repro.net import Network
from repro.runtime import DeploymentManager, DeploymentService

FORWARD = """
channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
"""

AMPLIFIER = """
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); OnRemote(network, p); (ps, ss))
"""


def main() -> None:
    net = Network(seed=1)
    admin = net.add_host("admin")
    routers = [net.add_router(f"r{i}") for i in range(3)]
    previous = admin
    for router in routers:
        net.link(previous, router, bandwidth=100e6)
        previous = router
    net.finalize()

    services = [DeploymentService(net, r) for r in routers]
    manager = DeploymentManager(net, admin)

    good = manager.push(FORWARD, [r.address for r in routers],
                        name="forwarder")
    bad = manager.push(AMPLIFIER, [r.address for r in routers],
                       name="amplifier")
    net.run(until=2.0)

    for xfer in (good, bad):
        print(f"push {xfer!r}:")
        for addr, status in manager.status(xfer).items():
            if status.ok:
                print(f"  {addr}: installed "
                      f"(cache_hit={status.cache_hit})")
            else:
                print(f"  {addr}: REJECTED — {status.detail[:60]}...")

    assert manager.all_ok(good)
    assert not manager.all_ok(bad)
    assert all(s.installed == ["forwarder"] for s in services)
    print("\nall routers run the safe program; the amplifier was "
          "rejected by late checking on every node")


if __name__ == "__main__":
    main()
