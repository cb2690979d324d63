"""The scale experiment: delivery accounting, the record shape, and
harness registration."""

import pytest

from repro.experiments.scale import (ScaleResult, run_scale_experiment,
                                     scale_until)
from repro.harness import registry

SMALL = dict(n_clusters=4, hosts_per_cluster=3, packets_per_host=4)


@pytest.fixture(scope="module")
def result():
    return run_scale_experiment(seed=11, **SMALL)


class TestDelivery:
    def test_everything_sent_is_delivered(self, result):
        assert result.figures["sent"] > 0
        assert result.figures["delivered"] == result.figures["sent"]


class TestResultShape:
    def test_registered_in_harness(self):
        reg = registry.get("scale")
        assert reg.result_cls is ScaleResult
        result = reg.fn(seed=3, n_clusters=2, hosts_per_cluster=2,
                        packets_per_host=1)
        assert result.figures["delivered"] == 2


class TestBuilderValidation:
    def test_until_is_a_pure_function_of_params(self):
        assert scale_until(SMALL) == scale_until(dict(SMALL))
