"""Integration: point-to-point to multipoint MPEG (paper §3.3)."""

import pytest

from repro.apps.mpeg import run_mpeg_experiment

from ..engines import installs_on


@pytest.fixture(scope="module")
def shared():
    return run_mpeg_experiment(use_asps=True, n_clients=3,
                               duration=15.0, warmup=2.0)


@pytest.fixture(scope="module")
def unshared():
    return run_mpeg_experiment(use_asps=False, n_clients=3,
                               duration=15.0, warmup=2.0)


class TestSharing:
    def test_single_server_session_with_asps(self, shared):
        assert shared.figures["server_sessions"] == 1

    def test_one_session_per_client_without(self, unshared):
        assert unshared.figures["server_sessions"] == 3

    def test_later_clients_capture(self, shared):
        assert shared.figures["modes"] == ["direct", "shared", "shared"]

    def test_uplink_traffic_reduced(self, shared, unshared):
        assert (shared.figures["uplink_bytes"]
                < 0.45 * unshared.figures["uplink_bytes"])

    def test_no_traffic_rate_degradation(self, shared):
        """Every viewer gets (essentially) the nominal frame rate."""
        assert shared.all_clients_at_full_rate

    def test_shared_and_direct_rates_match(self, shared):
        rates = shared.figures["per_client_rate"]
        assert max(rates) - min(rates) < 0.1 * shared.figures["nominal_fps"]

    def test_all_clients_receive_frames(self, shared):
        assert all(n > 100 for n in shared.figures["per_client_frames"])


class TestScalingClients:
    def test_uplink_constant_in_client_count(self):
        two = run_mpeg_experiment(use_asps=True, n_clients=2,
                                  duration=12.0)
        four = run_mpeg_experiment(use_asps=True, n_clients=4,
                                   duration=12.0)
        # One upstream stream regardless of audience size.
        assert four.figures["server_sessions"] == 1
        assert four.figures["uplink_bytes"] == pytest.approx(
            two.figures["uplink_bytes"], rel=0.1)

    def test_without_asps_uplink_scales_linearly(self):
        two = run_mpeg_experiment(use_asps=False, n_clients=2,
                                  duration=12.0)
        four = run_mpeg_experiment(use_asps=False, n_clients=4,
                                   duration=12.0)
        assert four.figures["uplink_bytes"] > 1.6 * two.figures["uplink_bytes"]


class TestBackends:
    def test_interpreter_backend_shares_too(self):
        with installs_on("interpreter"):
            result = run_mpeg_experiment(use_asps=True, n_clients=2,
                                         duration=10.0)
        assert result.figures["server_sessions"] == 1
        assert result.figures["modes"] == ["direct", "shared"]
