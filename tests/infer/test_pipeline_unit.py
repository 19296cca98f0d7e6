"""Unit tests for pipeline target selection and VP filtering."""

import ipaddress

import pytest

from repro.errors import MeasurementError
from repro.infer.pipeline import CableInferencePipeline
from repro.measure.vantage import VantagePoint
from repro.net.dns import RdnsStore
from repro.net.network import Network
from repro.net.router import Router


class _FakeIsp:
    name = "comcast"
    p2p_prefixlen = 30

    def __init__(self):
        from repro.net.addresses import Ipv4Allocator

        self.allocator = Ipv4Allocator("24.0.0.0/10")
        self.region_prefixes = {
            "testregion": [ipaddress.ip_network("24.0.0.0/22")],
        }


def _vp(name, address):
    host = Router(f"host-{name}")
    host.add_interface(address, 30)
    return VantagePoint(name, "transit", host, address)


@pytest.fixture()
def pipeline():
    net = Network()
    isp = _FakeIsp()
    external = [_vp("ext1", "4.0.0.2"), _vp("ext2", "4.0.0.6")]
    internal = [_vp(f"int{i}", f"24.1.0.{2 + 4 * i}") for i in range(6)]
    for vp in external + internal:
        net.add_router(vp.host)
    return CableInferencePipeline(net, isp, external + internal, sweep_vps=2)


class TestVpFiltering:
    def test_internal_vps_capped(self, pipeline):
        internal = [vp for vp in pipeline.vps if vp.name.startswith("int")]
        assert len(internal) == 4  # MAX_INTERNAL_VPS

    def test_internal_spread_includes_ends(self, pipeline):
        internal = [vp.name for vp in pipeline.vps if vp.name.startswith("int")]
        assert "int0" in internal and "int5" in internal

    def test_externals_first(self, pipeline):
        assert pipeline.vps[0].name.startswith("ext")

    def test_all_internal_rejected(self):
        net = Network()
        isp = _FakeIsp()
        vps = [_vp("int0", "24.1.0.2")]
        net.add_router(vps[0].host)
        with pytest.raises(MeasurementError):
            CableInferencePipeline(net, isp, vps)

    def test_no_vps_rejected(self):
        with pytest.raises(MeasurementError):
            CableInferencePipeline(Network(), _FakeIsp(), [])


class TestTargets:
    def test_slash24_targets_one_per_24(self, pipeline):
        targets = pipeline.slash24_targets()
        assert len(targets) == 4  # a /22 holds four /24s
        assert targets[0] == "24.0.0.1"

    def test_rdns_targets_filtered_by_isp(self, pipeline):
        store = pipeline.network.rdns
        store.set("24.0.1.1", "ae-1-ar01.denver.co.testregion.comcast.net")
        store.set("72.0.1.1", "agg1.sndgcaaa01r.socal.rr.com")  # charter
        store.set("24.0.1.2", "be-1-cr01.denver.co.ibone.comcast.net")  # backbone
        assert pipeline.rdns_targets() == ["24.0.1.1"]
