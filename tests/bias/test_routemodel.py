"""Policy route models: valley-freeness, determinism, fallbacks, and
equality with the frozen per-model engines of ``routemodel_oracle``.

Campaigns under each model, serial and supervised, are pinned in
``tests/integration/test_parity_matrix.py``."""

import pytest
from hypothesis import given, strategies as st

import routemodel_oracle as oracle
from network_scenarios import PREFIXES, build, scenarios
from repro.bias.routemodel import (
    HotPotatoRouteModel,
    ValleyFreeRouteModel,
    build_as_graph,
    build_route_model,
)
from repro.errors import TopologyError
from repro.net.router import Router
from repro.topology.asrel import AsGraph


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


# ----------------------------------------------------------------------
# The shared engine against the frozen per-model engines
# ----------------------------------------------------------------------
def _graph():
    graph = AsGraph()
    graph.add_relationship(1, 2, "p2c")
    graph.add_relationship(1, 3, "p2c")
    graph.add_relationship(2, 3, "p2p")
    return graph


#: Substrate changes after which every path is compared again.
MUTATIONS = ("connect", "add_router", "add_interface", "add_prefix_route", "attach_vp")


def _mutate(net, kind, pick, serial):
    routers = sorted(net.routers.values(), key=lambda r: r.uid)
    first, second = routers[pick % len(routers)], routers[(pick // 7 + 1) % len(routers)]
    if kind == "connect" and first is not second:
        net.connect(first, second, f"10.7.{serial}.1", f"10.7.{serial}.2", length_km=(1.0, 10.0)[pick % 2])
    elif kind == "add_router":
        # ASN 0 routers are labelled from a neighbour once connected.
        net.add_router(Router(f"n{serial}", asn=pick % 4))
    elif kind == "add_interface":
        net.add_interface(first, f"10.8.{serial}.1", 24)
    elif kind == "add_prefix_route":
        net.add_prefix_route(PREFIXES[pick % len(PREFIXES)], first)
    elif kind == "attach_vp":
        # As attach_host does, under a uid both copies share.
        host = net.add_router(Router(f"vp{serial}"))
        net.connect(first, host, f"10.6.{serial}.1", f"10.6.{serial}.2", length_km=2.0)


def _paths(model, net, flows):
    """Every (src, dst, flow) path of *model*, as uid lists or None."""
    routers = sorted(net.routers.values(), key=lambda r: r.uid)
    found = {}
    for src in routers:
        for dst in routers:
            for flow in flows:
                path = model.forwarding_path(net, src, dst, flow)
                found[src.uid, dst.uid, flow] = None if path is None else [r.uid for r in path]
    return found


@given(
    spec=scenarios(),
    mutations=st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10_000)), max_size=4),
)
def test_models_match_the_oracles_after_every_mutation(spec, mutations):
    """Each model and its oracle probe their own copy of one network, so
    neither sees ASN labels the other settled."""
    graph = _graph()
    pairs = [
        (ValleyFreeRouteModel(graph), oracle.ValleyFreeRouteModel(graph)),
        (HotPotatoRouteModel(graph), oracle.HotPotatoRouteModel(graph)),
        (HotPotatoRouteModel(), oracle.HotPotatoRouteModel()),
    ]
    nets = [(build(spec)[0], build(spec)[0]) for _pair in pairs]
    flows = spec["flows"]
    for serial, (kind, pick) in enumerate([(None, 0)] + mutations):
        for (model, reference), (net, reference_net) in zip(pairs, nets):
            if kind is not None:
                _mutate(net, kind, pick, serial)
                _mutate(reference_net, kind, pick, serial)
            assert _paths(model, net, flows) == _paths(reference, reference_net, flows), (model.name, kind)


@pytest.mark.parametrize("asns", [
    # Valley-free: both b routers are one AS, so (dst, down) has two
    # equal-cost predecessors; hot-potato: two equal exits out of a.
    {"src": 1, "a": 1, "b1": 2, "b2": 2, "dst": 2},
    # One AS behind src: hot-potato's tree from a ties at dst.
    {"src": 1, "a": 2, "b1": 2, "b2": 2, "dst": 2},
])
def test_equal_cost_choices_match_the_oracles_per_flow(toy_network, asns):
    net, routers = toy_network
    for uid, asn in asns.items():
        routers[uid].asn = asn
    graph = _graph()
    for model, reference in (
        (ValleyFreeRouteModel(graph), oracle.ValleyFreeRouteModel(graph)),
        (HotPotatoRouteModel(graph), oracle.HotPotatoRouteModel(graph)),
    ):
        paths = [
            [r.uid for r in model.forwarding_path(net, routers["src"], routers["dst"], flow)]
            for flow in range(32)
        ]
        assert paths == [
            [r.uid for r in reference.forwarding_path(net, routers["src"], routers["dst"], flow)]
            for flow in range(32)
        ], model.name
        assert {path[2] for path in paths} == {"b1", "b2"}, model.name
