"""The probe-path kernel against the frozen per-hop engine.

``Tracerouter.trace`` computes link, address and hash facts once per
topology or per trace; ``probe_oracle.OracleTracer`` is the engine it
replaced, recomputing everything per probe.  On hypothesis-generated
small topologies both must produce the same traces field for field,
the same probe counters and the same injected-fault counts.
"""

from __future__ import annotations

import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from probe_oracle import OracleTracer, route_target as oracle_route_target
from repro.bias.routemodel import ValleyFreeRouteModel
from repro.errors import RoutingError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.measure.traceroute import Tracerouter
from repro.net.link import PER_HOP_PROCESSING_MS
from repro.net.mpls import MplsTunnel
from repro.net.network import Network
from repro.net.router import ReplyPolicy, Router
from repro.topology.asrel import AsGraph

#: Source filters: VP sources (10.9/16) pass the first, fail the second.
FILTERS = ((), (ipaddress.ip_network("10.9.0.0/16"),), (ipaddress.ip_network("172.16.0.0/12"),))
#: Routed prefixes, nested so longest-match matters in both families.
PREFIXES = ("198.18.0.0/16", "198.18.1.0/24", "198.18.2.0/24", "198.18.1.128/25",
            "2001:db8::/32", "2001:db8:1::/48", "2001:db8:1:8000::/49")

policies = st.builds(
    ReplyPolicy,
    reply_from=st.sampled_from(("inbound", "probed", "loopback")),
    respond_prob=st.sampled_from((1.0, 1.0, 0.5, 0.0)),
    internal_only=st.sampled_from(FILTERS),
    echo_internal_only=st.sampled_from(FILTERS),
    initial_ttl=st.sampled_from((64, 255)),
)


@st.composite
def scenarios(draw):
    """A plain-data description of one small network and its probes."""
    n = draw(st.integers(3, 8))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5))
    edges += [(a, b) for a, b in extra if a != b]
    nodes = st.integers(0, n - 1)
    return {
        "policies": [draw(policies) for _ in range(n)],
        "loopbacks": [draw(st.booleans()) for _ in range(n)],
        "asns": [draw(st.sampled_from((1, 2, 3))) for _ in range(n)],
        "links": [
            (a, b, draw(st.sampled_from((1.0, 10.0, 40.0))), draw(st.sampled_from((None, None, 1.0))),
             draw(st.sampled_from((False, False, True))))
            for a, b in edges
        ],
        "prefixes": draw(st.lists(st.tuples(st.sampled_from(PREFIXES), nodes), max_size=5)),
        "tunnels": draw(st.lists(
            st.tuples(nodes, nodes, st.lists(nodes, max_size=3, unique=True), st.booleans()), max_size=3)),
        "lsr_rules": draw(st.lists(
            st.tuples(st.lists(nodes, max_size=3, unique=True), st.lists(nodes, max_size=2, unique=True)),
            max_size=2)),
        "vps": draw(st.lists(
            st.tuples(nodes, st.sampled_from((None, "own", "203.0.113.9"))), min_size=1, max_size=3)),
        "targets": draw(st.lists(st.tuples(
            st.sampled_from(("iface", "prefix", "loopback", "unrouted", "v6-text")),
            st.integers(0, 10_000)), min_size=1, max_size=6)),
        "flows": draw(st.lists(st.sampled_from((0, 1, 7)), min_size=1, max_size=2, unique=True)),
        "attempts": draw(st.sampled_from((1, 3))),
        "max_ttl": draw(st.sampled_from((32, 3))),
        "faults": draw(st.one_of(st.none(), st.integers(0, 1000))),
        "valley_free": draw(st.booleans()),
    }


def build(spec):
    """(network, [(vp router, src_address)], targets) for a scenario."""
    net = Network()
    routers = []
    for i, policy in enumerate(spec["policies"]):
        router = net.add_router(Router(f"r{i}", policy=policy, asn=spec["asns"][i]))
        if spec["loopbacks"][i]:
            router.loopback = ipaddress.ip_address(f"192.168.255.{i}")
        routers.append(router)
    for k, (a, b, length, metric, v6) in enumerate(spec["links"]):
        if v6:
            addr_a, addr_b, plen = f"2001:db8:ffff::{4 * k + 1:x}", f"2001:db8:ffff::{4 * k + 2:x}", 126
        else:
            addr_a, addr_b, plen = f"10.0.{k}.1", f"10.0.{k}.2", 30
        net.connect(routers[a], routers[b], addr_a, addr_b, prefixlen=plen, length_km=length, metric=metric)
    for prefix, owner in spec["prefixes"]:
        net.add_prefix_route(prefix, routers[owner])
    for ingress, egress, interior, ttl_propagate in spec["tunnels"]:
        inner = tuple(routers[i] for i in interior if i not in (ingress, egress))
        if ingress != egress:
            net.mpls.add(MplsTunnel(routers[ingress], routers[egress], inner, ttl_propagate))
    for hidden, reveal in spec["lsr_rules"]:
        net.mpls.add_lsr_rule([routers[i] for i in hidden], [routers[i] for i in reveal])
    for index, address in enumerate(sorted(net.all_addresses())):
        if index % 3:
            net.rdns.set(address, f"host{index}.example.net")
    vps = []
    for k, (at, source) in enumerate(spec["vps"]):
        host = net.add_router(Router(f"h{k}"))
        net.connect(routers[at], host, f"10.9.{k}.1", f"10.9.{k}.2", length_km=2.0)
        vps.append((host, {None: None, "own": f"10.9.{k}.2"}.get(source, source)))
    if spec["valley_free"]:
        graph = AsGraph()
        graph.add_relationship(1, 2, "p2c")
        graph.add_relationship(1, 3, "p2c")
        graph.add_relationship(2, 3, "p2p")
        net.route_model = ValleyFreeRouteModel(graph)
    interfaces = sorted(net.all_addresses())
    targets = []
    for kind, pick in spec["targets"]:
        if kind == "iface":
            targets.append(interfaces[pick % len(interfaces)])
        elif kind == "prefix":
            network = ipaddress.ip_network(PREFIXES[pick % len(PREFIXES)])
            targets.append(str(network[pick % min(network.num_addresses, 4096)]))
        elif kind == "loopback":
            targets.append(f"192.168.255.{pick % len(routers)}")
        elif kind == "unrouted":
            targets.append("203.0.113.7")
        else:  # a non-canonical spelling of an IPv6 address
            targets.append(f"2001:DB8:1:0:0:0:0:{pick % 65536:X}")
    return net, vps, targets


def run_campaign(tracer, net, vps, targets, flows, plan):
    """All traces of one scenario, plus counters and fault stats."""
    injector = FaultInjector(plan) if plan is not None else None
    net.attach_faults(injector)
    traces = []
    for host, source in vps:
        for target in targets:
            for flow in flows:
                traces.append(tracer.trace(host, target, flow_id=flow, src_address=source))
    net.detach_faults()
    return traces, tracer.counters(), injector.stats.as_dict() if injector else None


@settings(max_examples=80)
@given(spec=scenarios())
def test_kernel_matches_the_per_hop_oracle(spec):
    net, vps, targets = build(spec)
    plan = None
    if spec["faults"] is not None:
        plan = FaultPlan(seed=spec["faults"], probe_loss=0.2, rate_limit_share=0.5,
                         rdns_timeout=0.3, lsp_flap=0.5)
    knobs = {"attempts": spec["attempts"], "max_ttl": spec["max_ttl"]}
    kernel = run_campaign(Tracerouter(net, **knobs), net, vps, targets, spec["flows"], plan)
    oracle = run_campaign(OracleTracer(net, **knobs), net, vps, targets, spec["flows"], plan)
    assert kernel == oracle


def test_fixed_lsp_scenario_hides_and_reveals_the_interior():
    """One LSP, a DPR target, and the loopback, probed and filtered replies."""
    spec = {
        "policies": [ReplyPolicy(), ReplyPolicy(reply_from="loopback"), ReplyPolicy(),
                     ReplyPolicy(reply_from="probed"), ReplyPolicy(internal_only=FILTERS[2])],
        "loopbacks": [False, True, False, False, False],
        "asns": [1, 1, 1, 1, 1],
        "links": [(0, 1, 10.0, None, False), (1, 2, 10.0, None, False),
                  (2, 3, 10.0, None, False), (3, 4, 10.0, None, False)],
        "prefixes": [("198.18.1.0/24", 4)],
        "tunnels": [(1, 3, [2], False)],
        "lsr_rules": [],
        "vps": [(0, None)],
        "targets": [],
        "flows": [0],
        "attempts": 3,
        "max_ttl": 32,
        "faults": None,
        "valley_free": False,
    }
    net, vps, _ = build(spec)
    # 198.18.1.1 lies beyond the r1->r3 LSP; 10.0.2.2 is the egress r3.
    targets = ["198.18.1.1", "10.0.2.2"]
    kernel = run_campaign(Tracerouter(net, attempts=3), net, vps, targets, [0], None)
    oracle = run_campaign(OracleTracer(net, attempts=3), net, vps, targets, [0], None)
    assert kernel == oracle
    beyond, dpr = kernel[0]
    assert [hop.address for hop in beyond.hops] == ["10.9.0.1", "192.168.255.1", "10.0.2.2", None]
    assert [hop.address for hop in dpr.hops] == ["10.9.0.1", "192.168.255.1", "10.0.1.2", "10.0.2.2"]
    assert dpr.completed and not beyond.completed


@settings(max_examples=200)
@given(
    routes=st.lists(st.tuples(st.sampled_from(PREFIXES), st.integers(0, 2)), max_size=6),
    probe=st.one_of(
        st.integers(0, 2**32 - 1).map(lambda v: str(ipaddress.IPv4Address(v))),
        st.integers(0, 2**16 - 1).map(lambda v: f"198.18.{v >> 8}.{v & 255}"),
        st.integers(0, 2**80 - 1).map(lambda v: str(ipaddress.IPv6Address((0x20010DB8 << 96) | v))),
    ),
)
def test_integer_mask_route_target_matches_the_ip_network_reference(routes, probe):
    net = Network()
    routers = [net.add_router(Router(f"r{i}")) for i in range(3)]
    expected_table = {}
    for prefix, owner in routes:
        net.add_prefix_route(prefix, routers[owner])
        expected_table[ipaddress.ip_network(prefix)] = routers[owner]
    address = ipaddress.ip_address(probe)
    matches = [p for p in expected_table if p.version == address.version and address in p]
    expected = expected_table[max(matches, key=lambda p: p.prefixlen)] if matches else None
    assert net.route_target(probe) == (expected, False)
    assert oracle_route_target(net, probe) == (expected, False)


def test_connect_after_a_trace_updates_the_link_table(toy_network):
    net, routers = toy_network
    tracer = Tracerouter(net)
    before = tracer.trace(routers["src"], "10.0.0.14")
    assert [hop.address for hop in before.hops][::2] == ["10.0.0.2", "10.0.0.14"]
    # A shortcut src -> dst added after the first trace must be used,
    # with its own inbound interface and delay, by the next one.
    link = net.connect(routers["src"], routers["dst"], "10.0.1.1", "10.0.1.2", length_km=1.0)
    after = tracer.trace(routers["src"], "10.0.0.14")
    assert [hop.address for hop in after.hops] == ["10.0.0.14"]
    assert after == OracleTracer(net).trace(routers["src"], "10.0.0.14")
    shortcut = [routers["src"], routers["dst"]]
    assert net.inbound_interfaces(shortcut)[1] is link.b
    assert net.path_delays_ms(shortcut) == [0.0, link.delay_ms + PER_HOP_PROCESSING_MS]


def test_hop_plan_raises_for_a_path_without_links(toy_network):
    net, routers = toy_network
    with pytest.raises(RoutingError):
        net.hop_plan([routers["src"], routers["dst"]], routers["dst"])
