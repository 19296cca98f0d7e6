"""Unit tests for the McTraceroute wardriving campaign."""

import pytest

from repro.errors import CheckpointError, MeasurementError
from repro.measure.traceroute import Hop, TraceResult
from repro.measure.wardriving import McTracerouteCampaign


@pytest.fixture(scope="module")
def campaign(internet):
    wardriving = McTracerouteCampaign(
        internet.network, internet.att, seed=17, target_share=0.4
    )
    wardriving.place_hotspots(internet.att.regions["lsanca"], count=58)
    return wardriving


class TestPlacement:
    def test_hotspot_count(self, campaign):
        assert len(campaign.hotspots) == 58

    def test_target_share_near_configured(self, campaign):
        on_target = sum(1 for h in campaign.hotspots if h.on_target_isp)
        assert 12 <= on_target <= 35  # ~40% of 58 (paper: 23)

    def test_usable_vps_are_wifi(self, campaign):
        for vp in campaign.usable_vps():
            assert vp.kind == "wifi"

    def test_competitor_hotspots_have_no_vp(self, campaign):
        for hotspot in campaign.hotspots:
            if hotspot.isp_name == "competitor":
                assert hotspot.vp is None

    def test_empty_region_rejected(self, internet):
        from repro.topology.co import Region

        wardriving = McTracerouteCampaign(internet.network, internet.att)
        with pytest.raises(MeasurementError):
            wardriving.place_hotspots(Region("empty", "att"), count=5)


class TestSweep:
    def test_sweep_produces_traces(self, campaign, internet):
        import re

        pattern = re.compile(r"lightspeed\.lsanca\.sbcglobal\.net$")
        targets = internet.network.rdns.addresses_matching(pattern)[:20]
        traces = campaign.sweep(targets)
        assert traces
        assert all(t.vp_name.startswith("mcd-") for t in traces)

    def _targets(self, internet):
        import re

        pattern = re.compile(r"lightspeed\.lsanca\.sbcglobal\.net$")
        return internet.network.rdns.addresses_matching(pattern)[:3]

    def test_resume_without_a_checkpoint_starts_fresh(
        self, campaign, internet, tmp_path
    ):
        path = tmp_path / "sweep.json"
        traces = campaign.sweep(
            self._targets(internet), checkpoint_path=path, resume=True
        )
        assert traces
        assert not campaign.last_health.resumed
        assert path.exists()

    def test_resume_from_a_corrupt_checkpoint_raises(
        self, campaign, internet, tmp_path
    ):
        path = tmp_path / "sweep.json"
        path.write_text('{"kind": "campaign-checkpoint", "sch')
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            campaign.sweep(
                self._targets(internet), checkpoint_path=path, resume=True
            )
        # Not discarded, and not overwritten by a fresh sweep.
        assert path.read_text() == '{"kind": "campaign-checkpoint", "sch'

    def test_distinct_paths_skips_access_hop(self):
        hops_a = [Hop(1, "10.0.0.1"), Hop(2, "10.0.0.5"), Hop(3, "10.0.0.9")]
        hops_b = [Hop(1, "10.0.9.1"), Hop(2, "10.0.0.5"), Hop(3, "10.0.0.9")]
        traces = [
            TraceResult("a", "10.0.0.9", hops_a, completed=True),
            TraceResult("b", "10.0.0.9", hops_b, completed=True),
        ]
        # Identical past the first hop: one distinct path.
        assert len(McTracerouteCampaign.distinct_ip_paths(traces)) == 1
