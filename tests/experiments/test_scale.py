"""The scale experiment: execution-mode identity, the volatile
figure split, and harness registration."""

import pytest

from repro.experiments.scale import (ScaleResult, build_scale_net,
                                     run_scale_experiment, scale_until)
from repro.harness import registry

SMALL = dict(n_clusters=4, hosts_per_cluster=3, packets_per_host=4)


@pytest.fixture(scope="module")
def serial():
    return run_scale_experiment(seed=11, shard_segments=1, **SMALL)


class TestExecutionModes:
    def test_inline_sharded_records_byte_identical(self, serial):
        for segments in (2, 4):
            sharded = run_scale_experiment(seed=11,
                                           shard_segments=segments,
                                           **SMALL)
            assert sharded.to_json() == serial.to_json()

    def test_everything_sent_is_delivered(self, serial):
        assert serial.figures["sent"] > 0
        assert serial.figures["delivered"] == serial.figures["sent"]


class TestResultShape:
    def test_execution_strategy_is_volatile(self, serial):
        sharded = run_scale_experiment(seed=11, shard_segments=2,
                                       **SMALL)
        record = sharded.record()
        for key in ("segments", "windows"):
            assert key not in record["figures"]
            assert key in sharded.volatile()
        assert sharded.volatile()["segments"] == 2

    def test_registered_in_harness(self):
        reg = registry.get("scale")
        assert reg.result_cls is ScaleResult
        result = reg.fn(seed=3, n_clusters=2, hosts_per_cluster=2,
                        packets_per_host=1)
        assert result.figures["delivered"] == 2


class TestBuilderValidation:
    def test_rejects_sharding_finer_than_clusters(self):
        with pytest.raises(ValueError, match="cluster"):
            build_scale_net(params=dict(n_clusters=2,
                                        hosts_per_cluster=2),
                            seed=0, shard_segments=3)

    def test_until_is_a_pure_function_of_params(self):
        assert scale_until(SMALL) == scale_until(dict(SMALL))
