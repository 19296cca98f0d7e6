"""Policy route models: valley-freeness, determinism, fallbacks, and
supervised-worker parity."""

import pytest

from repro.bias.routemodel import build_as_graph, build_route_model
from repro.errors import TopologyError
from repro.io.export import region_to_json
from repro.measure.substrates import cable_campaign
from region_pipeline import REGION, RegionPipeline


def _co_router(internet):
    """Some infrastructure router inside the first Comcast CO."""
    region = internet.comcast.regions[sorted(internet.comcast.regions)[0]]
    co_uid = sorted(region.cos)[0]
    for uid in sorted(internet.network.routers):
        router = internet.network.routers[uid]
        if router.co is not None and router.co.uid == co_uid:
            return router
    raise AssertionError("no router found in the first Comcast CO")


@pytest.fixture(scope="module")
def vf_model(bias_internet):
    return build_route_model(bias_internet, "valley-free")


@pytest.fixture(scope="module")
def hp_model(bias_internet):
    return build_route_model(bias_internet, "hot-potato")


@pytest.fixture(scope="module")
def endpoints(bias_internet):
    """One external VP host and one in-ISP infrastructure router."""
    vp = next(
        vp for vp in bias_internet.build_standard_vps()
        if vp.name.startswith("vp-transit-")
    )
    return vp.host, _co_router(bias_internet)


class TestBuilders:
    def test_spf_is_the_null_model(self, bias_internet):
        assert build_route_model(bias_internet, "spf") is None

    def test_unknown_name_raises(self, bias_internet):
        with pytest.raises(TopologyError):
            build_route_model(bias_internet, "cold-potato")

    def test_annotation_labels_every_router(self, bias_internet, vf_model):
        # build_route_model annotates ASNs as a side effect.
        unlabeled = [
            r.uid for r in bias_internet.network.routers.values()
            if not r.asn
        ]
        assert unlabeled == []

    def test_as_graph_shape(self, bias_internet):
        graph = build_as_graph(bias_internet)
        comcast = bias_internet.comcast.asn
        charter = bias_internet.charter.asn
        assert graph.rel_of(comcast, charter) == "p2p"
        providers = graph.providers_of(comcast)
        assert len(providers) == 1
        assert graph.rel_of(providers[0], charter) == "p2c"


#: Health fields only the supervisor fills in (zero for a serial run).
_SUPERVISOR_HEALTH = ("shards_planned", "workers_spawned")


class TestSupervisedParity:
    def test_valley_free_workers_match_serial(self):
        """A route model is part of the substrate recipe, so supervised
        workers probe under it too: the regions are byte-identical.

        The substrate is the bias fixture's (seed 11, cable only), built
        fresh by the recipe so the serial fleet is the one workers build.
        """
        internet, fleet, worker_spec = cable_campaign(
            seed=11, route_model="valley-free"
        )
        assert internet.network.route_model.name == "valley-free"

        def run(workers):
            return RegionPipeline(
                internet.network, internet.comcast, fleet, sweep_vps=2,
                workers=workers, worker_spec=worker_spec,
            ).run()

        serial, supervised = run(0), run(2)
        assert REGION in serial.regions
        assert set(supervised.regions) == set(serial.regions)
        for name in sorted(serial.regions):
            assert region_to_json(supervised.regions[name]) == region_to_json(
                serial.regions[name]
            ), f"region {name} diverged under workers=2"
        health = supervised.health.as_dict()
        reference = serial.health.as_dict()
        for field in _SUPERVISOR_HEALTH:
            assert health.pop(field) > 0
            reference.pop(field)
        assert health == reference


class TestValleyFree:
    @staticmethod
    def _as_path(path):
        asns = []
        for router in path:
            if not asns or asns[-1] != router.asn:
                asns.append(router.asn)
        return asns

    def test_paths_obey_gao_policy(self, bias_internet, vf_model):
        network = bias_internet.network
        dst = _co_router(bias_internet)
        found = 0
        for vp in bias_internet.build_standard_vps():
            path = vf_model.forwarding_path(network, vp.host, dst, flow_id=7)
            if path is None:
                continue
            found += 1
            as_path = self._as_path(path)
            assert vf_model.as_graph.is_valley_free(as_path), (
                vp.name, as_path,
            )
        assert found > 0, "no VP reached the CO under policy"

    def test_same_flow_same_path(self, bias_internet, vf_model, endpoints):
        src, dst = endpoints
        network = bias_internet.network
        first = vf_model.forwarding_path(network, src, dst, flow_id=3)
        second = vf_model.forwarding_path(network, src, dst, flow_id=3)
        assert first is not None
        assert [r.uid for r in first] == [r.uid for r in second]

    def test_path_endpoints_and_no_loops(self, bias_internet, vf_model,
                                         endpoints):
        src, dst = endpoints
        path = vf_model.forwarding_path(
            bias_internet.network, src, dst, flow_id=5
        )
        assert path is not None
        assert path[0] is src and path[-1] is dst
        uids = [r.uid for r in path]
        assert len(uids) == len(set(uids))


class TestHotPotato:
    def test_path_exists_and_terminates(self, bias_internet, hp_model,
                                        endpoints):
        src, dst = endpoints
        path = hp_model.forwarding_path(
            bias_internet.network, src, dst, flow_id=9
        )
        assert path is not None
        assert path[0] is src and path[-1] is dst
        uids = [r.uid for r in path]
        assert len(uids) == len(set(uids)), "hot-potato path loops"

    def test_deterministic_per_flow(self, bias_internet, hp_model,
                                    endpoints):
        src, dst = endpoints
        network = bias_internet.network
        first = hp_model.forwarding_path(network, src, dst, flow_id=2)
        second = hp_model.forwarding_path(network, src, dst, flow_id=2)
        assert first is not None
        assert [r.uid for r in first] == [r.uid for r in second]
