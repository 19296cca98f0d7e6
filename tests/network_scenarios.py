"""Small random networks for the probe-path and route-model oracle tests.

:func:`scenarios` draws a plain-data description of one network (routers
with reply policies and ASNs, links, routed prefixes, MPLS tunnels, VP
hosts and probe targets); :func:`build` turns it into a
:class:`~repro.net.network.Network`.
"""

from __future__ import annotations

import ipaddress

from hypothesis import strategies as st

from repro.bias.routemodel import ValleyFreeRouteModel
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
