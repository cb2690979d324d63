"""Golden identity pins: the canonical record of four small paper runs,
and of five lifecycle drills.

Every simulated figure and deterministic metric of a run is a pure
function of (code, params, seed), so a host-speed change to the
simulator core — heap layout, forwarding path, header constructors —
must leave these digests untouched.  They fail in seconds under tier-1
where ``bench/expected.json`` needs the 22-second benchmark; a
deliberate change to event keys or ordering re-records them (print
``digest(run())`` for each case) and says so in its PR.

The lifecycle pins cover what the four runs above never exercise: a
:class:`~repro.runtime.lifecycle.LifecycleManager` staging, tripping,
quarantining and rolling back programs.  Each drill pins two digests:
its record, and the ``rollout`` / ``quarantine`` / ``rollback`` /
``deploy`` event trail (time, node, data) of its observability scope.
"""

import hashlib
import json

import pytest

from repro.apps.audio.experiment import run_audio_experiment
from repro.apps.http.experiment import run_http_experiment
from repro.experiments.scale import run_scale_experiment
from repro.harness import registry
from repro.harness.matrix import matrix
from repro.obs import Observability

HTTP = dict(n_clients=3, duration=0.8, warmup=0.2)

GOLDEN = {
    "scale-serial": (
        lambda: run_scale_experiment(seed=5, n_clusters=8,
                                     hosts_per_cluster=4,
                                     packets_per_host=6),
        "9951a151d52f94788572060bcdaff987"
        "ab0b4674bda3cdfdd3607e3e0ea516fe"),
    "fig8-asp": (
        lambda: run_http_experiment(mode="asp", **HTTP),
        "e8c18e6c9e737cd56044c55efeacb963"
        "da190e602e9c755dd4d498a3db7d6d8b"),
    "fig8-builtin": (
        lambda: run_http_experiment(mode="builtin", **HTTP),
        "2fb880c575bfd21351d12a94e7e285bf"
        "a7af7509e7fdeeae9d8b20c2c6247fbb"),
    "fig6-audio": (
        lambda: run_audio_experiment(duration=12.0),
        "7b37ee58a8b83d24285d603cda617a98"
        "0cae16049a6d5e7b05d28767f3776eb7"),
}


def digest(result) -> str:
    return hashlib.sha256(result.to_json().encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_record_digest_is_pinned(case):
    run, expected = GOLDEN[case]
    assert digest(run()) == expected


#: the event kinds that make up a lifecycle trail
LIFECYCLE_KINDS = ("rollout", "quarantine", "rollback", "deploy")

LIFECYCLE = {
    "chaos/drill-4": (
        "604f2cbf1a73dd82a6f3d6c7293e6c5aa211f1184a1e6efe6249d81388f547c6",
        "22c11bb6dc4530ef30db2f59bc6e4d94d72ef50f0252ecb2fee640c3a72dd8ef"),
    "chaos/drill-16": (
        "34b8d2076b4b7e30be3417d84afc79cf3ece39ddf3d798701cc7ee4af271068a",
        "9a327b2837c6aaa50861cf231219d75be89df013c8dc1bcae8cb80e562aa850e"),
    "chaos/upgrade-16": (
        "e8e1fdfbb36eae70405509517bc8b475524e2ae4e7ad15bf4be854b8e2e94811",
        "1b589f31bfd09a626d91d212981f164172b1c4c267036b516d187cf17b2c8b81"),
    "web/syn-shed": (
        "46a40c8485b94ce76497da324c1f9d22b2fd464860cd2ed68722456aee08d868",
        "305a9aabc184fb49d34b2024c5b3bf63e1d416c08a409cf620df3560db4bca3f"),
    "web/syn-shed-poisoned": (
        "0f1fcc66cfc5549d4036ae192ebae313ea4c1f362dbabf45d715c7480043fd48",
        "ff6924b31102dc513d328799bc33892f8babe43a6653b45fa03c62f21b1814c0"),
}


def trail_digest(obs: Observability) -> str:
    trail = [e.to_dict() for e in obs.events.events
             if e.kind in LIFECYCLE_KINDS]
    return hashlib.sha256(
        json.dumps(trail, sort_keys=True, default=str).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(LIFECYCLE))
def test_lifecycle_drill_is_pinned(case):
    scenario = next(s for s in matrix("all") if s.name == case)
    obs = Observability()
    result = registry.run(scenario, obs=obs)
    assert (digest(result), trail_digest(obs)) == LIFECYCLE[case]
