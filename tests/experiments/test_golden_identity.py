"""Golden identity pins: the canonical record of four small paper runs.

Every simulated figure and deterministic metric of a run is a pure
function of (code, params, seed), so a host-speed change to the
simulator core — heap layout, forwarding path, header constructors —
must leave these digests untouched.  They fail in seconds under tier-1
where ``bench/expected.json`` needs the 22-second benchmark; a
deliberate change to event keys or ordering re-records them (print
``digest(run())`` for each case) and says so in its PR.
"""

import hashlib

import pytest

from repro.apps.audio.experiment import run_audio_experiment
from repro.apps.http.experiment import run_http_experiment
from repro.experiments.scale import run_scale_experiment

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
