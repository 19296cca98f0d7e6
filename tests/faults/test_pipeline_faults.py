"""End-to-end fault tolerance of the cable pipeline (one small region)."""

import pytest

from repro.faults import FaultPlan
from repro.io.export import campaign_health_to_json, region_to_json
from region_pipeline import REGION, RegionPipeline


@pytest.fixture()
def small_world():
    from repro.topology.internet import SimulatedInternet

    internet = SimulatedInternet(
        seed=23, include_telco=False, include_mobile=False
    )
    return internet, list(internet.build_standard_vps())


def _pipeline(internet, fleet, **kwargs):
    return RegionPipeline(
        internet.network, internet.comcast, fleet,
        sweep_vps=4, **kwargs,
    )


def _region_json(result):
    return (
        region_to_json(result.regions[REGION])
        if REGION in result.regions
        else None
    )


class TestFaultyCampaignCompletes:
    def test_loss_and_dropouts_yield_health_not_exception(self, small_world):
        internet, fleet = small_world
        plan = FaultPlan(seed=5, probe_loss=0.10, vp_dropout=2,
                         vp_dropout_after=100)
        result = _pipeline(
            internet, fleet, attempts=2, faults=plan
        ).run()
        health = result.health
        assert health is not None
        assert health.probes_lost > 0
        assert len(health.vps_lost) == 2
        assert "lost" in health.summary()
        # The health report exports alongside the topology artifacts.
        assert '"campaign-health"' in campaign_health_to_json(health)
        # The network fixture is left clean for other users.
        assert internet.network.faults is None

    def test_retries_recover_silent_hops(self, small_world):
        internet, fleet = small_world
        plan = FaultPlan(seed=5, probe_loss=0.25)

        naive = _pipeline(internet, fleet, attempts=1, faults=plan).run()
        resilient = _pipeline(internet, fleet, attempts=3, faults=plan).run()

        def silent(result):
            return sum(
                1 for t in result.traces for h in t.hops if h.address is None
            )

        assert silent(resilient) < silent(naive)
        assert resilient.health.probes_retried > 0


class TestCheckpointResume:
    def test_resume_without_checkpoint_starts_fresh(self, small_world, tmp_path):
        internet, fleet = small_world
        result = _pipeline(
            internet, fleet,
            checkpoint_path=tmp_path / "missing.json", resume=True,
        ).run()
        assert _region_json(result) is not None
