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

from network_scenarios import FILTERS, PREFIXES, build, scenarios
from probe_oracle import OracleTracer, route_target as oracle_route_target
from repro.bias.routemodel import ValleyFreeRouteModel
from repro.errors import RoutingError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.measure.traceroute import Tracerouter
from repro.net.dns import RdnsStore
from repro.net.link import PER_HOP_PROCESSING_MS
from repro.net.mpls import MplsTunnel
from repro.net.network import Network
from repro.net.router import ReplyPolicy, Router
from repro.topology.asrel import AsGraph


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
        net.hop_plan([routers["src"], routers["dst"]], [routers["src"], routers["dst"]])


# ----------------------------------------------------------------------
# The per-source walk memo and probe-plan cache
# ----------------------------------------------------------------------
#: Substrate changes a warm cache must notice (``max_ttl`` is a tracer
#: knob the supervisor's workers reassign after building the tracer).
MUTATIONS = ("connect", "prefix", "tunnel", "lsr", "rdns", "policy",
             "route_model", "fresh_paths", "max_ttl")


class FreshCopies:
    """A route model returning the SPF path as a new, equal list each call."""

    def forwarding_path(self, network, src, dst, flow_id):
        return list(network._walk(src.uid, dst.uid, str(flow_id)))


def mutate(net, tracers, kind, pick, serial):
    """Apply one substrate change of *kind*; *pick* chooses its operands.

    ``tracers[0]`` is the kernel, whose cached paths place new LSPs.
    """
    routers = sorted((r for r in net.routers.values() if r.uid.startswith("r")), key=lambda r: r.uid)
    first, second = routers[pick % len(routers)], routers[(pick // 7 + 1) % len(routers)]
    if kind == "connect" and first is not second:
        net.connect(first, second, f"10.7.{serial}.1", f"10.7.{serial}.2", length_km=0.5)
    elif kind == "prefix":
        net.add_prefix_route(PREFIXES[pick % len(PREFIXES)], first)
    elif kind == "tunnel":
        # An LSP inside a path the kernel has cached, ending before its
        # destination, so that it hides its interior from the trace.
        paths = sorted((path for path, _plan in tracers[0]._plans.values() if len(path) >= 5),
                       key=lambda path: [router.uid for router in path])
        if paths:
            path = paths[pick % len(paths)]
            net.mpls.add(MplsTunnel(path[1], path[-2], tuple(path[2:-2])))
        elif first is not second:
            net.mpls.add(MplsTunnel(first, second))
    elif kind == "lsr":
        net.mpls.add_lsr_rule([first], [second])
    elif kind == "rdns":
        for iface in first.interfaces:
            net.rdns.set(iface.text, f"renamed{serial}.example.net")
    elif kind == "policy":
        first.policy = ReplyPolicy(
            reply_from=("inbound", "probed", "loopback")[pick % 3],
            respond_prob=(1.0, 0.0, 0.5)[pick % 3],
            internal_only=FILTERS[pick % len(FILTERS)],
            initial_ttl=255,
        )
    elif kind == "route_model":
        graph = AsGraph()
        graph.add_relationship(1, 2, "p2c")
        graph.add_relationship(1, 3, "p2c")
        net.route_model = ValleyFreeRouteModel(graph)
    elif kind == "fresh_paths":
        net.route_model = FreshCopies()
    elif kind == "max_ttl":
        for tracer in tracers:
            tracer.max_ttl = (2, 4, 32)[pick % 3]


def vp_major(tracer, vps, targets, flows):
    """Traces in campaign order: per VP and flow, every target."""
    return [
        tracer.trace(host, target, flow_id=flow, src_address=source)
        for host, source in vps for flow in flows for target in targets
    ]


def counting_plan_builds(net):
    """Count ``MplsDomain.visible_path`` calls: one per plan-cache miss."""
    calls = []
    original = net.mpls.visible_path

    def visible_path(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    net.mpls.visible_path = visible_path
    return calls


def many_targets(net):
    """Every interface address and a few addresses in each routed prefix."""
    targets = sorted(net.all_addresses())
    for prefix in PREFIXES:
        network = ipaddress.ip_network(prefix)
        targets += [str(network[k]) for k in (1, 2, 3)]
    return targets


@settings(max_examples=60, deadline=None)
@given(
    spec=scenarios(),
    mutations=st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10_000)),
                       min_size=1, max_size=4),
)
def test_a_warm_plan_cache_matches_the_oracle_after_every_mutation(spec, mutations):
    net, vps, _targets = build(spec)
    targets = many_targets(net)
    kernel, oracle = Tracerouter(net, attempts=spec["attempts"]), OracleTracer(net, attempts=spec["attempts"])
    flows = spec["flows"]
    assert vp_major(kernel, vps, targets, flows) == vp_major(oracle, vps, targets, flows)
    # The cache holds the last source's plans: keep probing from it.
    last_vp, last_flow = vps[-1:], flows[-1:]
    for serial, (kind, pick) in enumerate(mutations):
        mutate(net, (kernel, oracle), kind, pick, serial)
        assert vp_major(kernel, last_vp, targets, last_flow) == vp_major(oracle, last_vp, targets, last_flow)
    assert kernel.counters() == oracle.counters()


def test_targets_behind_one_router_share_a_plan(toy_network):
    net, routers = toy_network
    builds = counting_plan_builds(net)
    targets = [f"198.18.5.{k}" for k in range(1, 9)] + ["10.0.0.14"]
    kernel, oracle = Tracerouter(net), OracleTracer(net)
    src = [(routers["src"], None)]
    for flows in ([0], [1, 7]):
        assert vp_major(kernel, src, targets, flows) == vp_major(oracle, src, targets, flows)
    # One plan per (source flow, destination router): the /24 and the
    # destination's own interface are both delivered to "dst".
    assert len(builds) == 3
    net.route_model = FreshCopies()
    assert vp_major(kernel, src, targets, [7]) == vp_major(oracle, src, targets, [7])
    # An equal path from a route model still hits; a new source refills.
    assert len(builds) == 3
    assert vp_major(kernel, [(routers["src"], "10.9.9.9")], targets, [7]) \
        == vp_major(oracle, [(routers["src"], "10.9.9.9")], targets, [7])
    assert len(builds) == 4


@pytest.mark.parametrize("kind", MUTATIONS)
def test_each_mutation_after_a_fill_matches_the_oracle(kind):
    spec = {
        "policies": [ReplyPolicy(), ReplyPolicy(), ReplyPolicy(), ReplyPolicy(), ReplyPolicy()],
        "loopbacks": [True, True, False, True, False],
        "asns": [1, 2, 2, 3, 3],
        "links": [(0, 1, 10.0, None, False), (1, 2, 10.0, None, False),
                  (2, 3, 10.0, None, False), (3, 4, 10.0, None, False), (0, 4, 60.0, None, False)],
        "prefixes": [("198.18.1.0/24", 4), ("198.18.2.0/24", 2)],
        "tunnels": [],
        "lsr_rules": [],
        "vps": [(0, None), (0, "own")],
        "targets": [],
        "flows": [0, 1],
        "attempts": 1,
        "max_ttl": 32,
        "faults": None,
        "valley_free": False,
    }
    net, vps, _ = build(spec)
    targets = many_targets(net)
    kernel, oracle = Tracerouter(net), OracleTracer(net)
    builds = counting_plan_builds(net)
    assert vp_major(kernel, vps, targets, [0, 1]) == vp_major(oracle, vps, targets, [0, 1])
    assert len(builds) < len(vps) * len(targets) * 2
    # Probe on from the last source, whose plans the cache still holds.
    for pick in (0, 1, 2, 8, 9):
        mutate(net, (kernel, oracle), kind, pick, pick)
        assert vp_major(kernel, vps[-1:], targets, [1]) == vp_major(oracle, vps[-1:], targets, [1])
    assert kernel.counters() == oracle.counters()


class ExplicitRoutes:
    """A route model with one fixed router path per destination router."""

    def __init__(self, routes):
        self.routes = routes

    def forwarding_path(self, network, src, dst, flow_id):
        uids = self.routes.get(dst.uid)
        return None if uids is None else [network.routers[uid] for uid in uids]


def test_transit_steps_follow_the_prefix_each_path_takes(toy_network):
    net, routers = toy_network
    for uid, near, far in (("e", "10.0.3.1", "10.0.3.2"), ("f", "10.0.3.5", "10.0.3.6")):
        routers[uid] = net.add_router(Router(uid))
        net.connect(routers["dst"], routers[uid], near, far)
    # Both paths cross dst, entering it from b1 towards e and from b2
    # towards f: dst's transit step differs between the two plans.
    net.route_model = ExplicitRoutes({"e": ["src", "a", "b1", "dst", "e"], "f": ["src", "a", "b2", "dst", "f"]})
    src = [(routers["src"], None)]
    targets = ["10.0.3.2", "10.0.3.6"]
    traces = vp_major(Tracerouter(net), src, targets, [0])
    assert traces == vp_major(OracleTracer(net), src, targets, [0])
    assert [trace.hops[2].address for trace in traces] == ["10.0.0.14", "10.0.0.18"]


def test_max_ttl_applies_to_plans_built_under_a_smaller_one(toy_network):
    net, routers = toy_network
    src = [(routers["src"], None)]
    targets = ["198.18.5.1", "198.18.5.2"]
    kernel, oracle = Tracerouter(net, max_ttl=1), OracleTracer(net, max_ttl=1)
    assert vp_major(kernel, src, targets, [0]) == vp_major(oracle, src, targets, [0])
    kernel.max_ttl = oracle.max_ttl = 32
    deep = vp_major(kernel, src, targets, [0])
    assert deep == vp_major(oracle, src, targets, [0])
    assert all(len(trace.hops) > 1 for trace in deep)


def test_faulted_runs_with_flapped_tunnels_reuse_plans_per_flap_set():
    spec = {
        "policies": [ReplyPolicy()] * 5,
        "loopbacks": [False] * 5,
        "asns": [1] * 5,
        "links": [(0, 1, 10.0, None, False), (1, 2, 10.0, None, False),
                  (2, 3, 10.0, None, False), (3, 4, 10.0, None, False)],
        "prefixes": [("198.18.1.0/24", 4), ("198.18.2.0/24", 3)],
        "tunnels": [(1, 3, [2], False), (1, 4, [2, 3], False)],
        "lsr_rules": [],
        "vps": [(0, None)],
        "targets": [],
        "flows": [0],
        "attempts": 2,
        "max_ttl": 32,
        "faults": None,
        "valley_free": False,
    }
    net, vps, _ = build(spec)
    targets = many_targets(net)
    plan = FaultPlan(seed=3, probe_loss=0.2, rate_limit_share=0.5, rdns_timeout=0.3, lsp_flap=0.5)
    kernel_injector, oracle_injector = FaultInjector(plan), FaultInjector(plan)
    kernel, oracle = Tracerouter(net, attempts=2), OracleTracer(net, attempts=2)
    net.attach_faults(kernel_injector)
    kernel_traces = vp_major(kernel, vps, targets, [0, 1])
    net.attach_faults(oracle_injector)
    oracle_traces = vp_major(oracle, vps, targets, [0, 1])
    net.detach_faults()
    assert kernel_traces == oracle_traces
    assert kernel.counters() == oracle.counters()
    assert kernel_injector.stats.as_dict() == oracle_injector.stats.as_dict()
    assert kernel_injector.stats.lsp_flaps > 0
    assert any(down for _dst, down in kernel._plans)


# ----------------------------------------------------------------------
# The fast hop under fault plans of each shape
# ----------------------------------------------------------------------
#: Probe loss with each other fault class in turn.  Loss alone, LSP
#: flaps and stale rDNS leave loss the only per-probe fault, so fixed
#: steps take the fast hop; rate limiting and rDNS timeouts keep the
#: per-probe path.
PLAN_SHAPES = {
    "loss": {},
    "loss+lsp_flap": {"lsp_flap": 0.5},
    "loss+stale_rdns": {"stale_rdns": 0.5},
    "loss+rate_limit": {"rate_limit_share": 0.5},
    "loss+rdns_timeout": {"rdns_timeout": 0.3},
}


@pytest.mark.parametrize("shape", sorted(PLAN_SHAPES))
@settings(max_examples=30, deadline=None)
@given(spec=scenarios(), seed=st.integers(0, 1000))
def test_kernel_matches_the_oracle_under_each_plan_shape(shape, spec, seed):
    net, vps, targets = build(spec)
    plan = FaultPlan(seed=seed, probe_loss=0.2, **PLAN_SHAPES[shape])
    knobs = {"attempts": spec["attempts"], "max_ttl": spec["max_ttl"]}
    kernel = run_campaign(Tracerouter(net, **knobs), net, vps, targets, spec["flows"], plan)
    oracle = run_campaign(OracleTracer(net, **knobs), net, vps, targets, spec["flows"], plan)
    assert kernel == oracle


def test_loss_draws_key_on_the_destination_as_spelled():
    """Non-canonical IPv6 targets: the probe key keeps the raw text."""
    spec = {
        "policies": [ReplyPolicy()] * 4,
        "loopbacks": [False] * 4,
        "asns": [1] * 4,
        "links": [(0, 1, 10.0, None, True), (1, 2, 10.0, None, True), (2, 3, 10.0, None, True)],
        "prefixes": [("2001:db8:1::/48", 3)],
        "tunnels": [],
        "lsr_rules": [],
        "vps": [(0, None)],
        "targets": [],
        "flows": [0],
        "attempts": 2,
        "max_ttl": 32,
        "faults": None,
        "valley_free": False,
    }
    net, vps, _ = build(spec)
    targets = [f"2001:DB8:1:0:0:0:0:{k:X}" for k in range(1, 31)]
    plan = FaultPlan(seed=2, probe_loss=0.3)
    kernel = run_campaign(Tracerouter(net, attempts=2), net, vps, targets, [0, 1], plan)
    oracle = run_campaign(OracleTracer(net, attempts=2), net, vps, targets, [0, 1], plan)
    assert kernel == oracle
    assert kernel[2]["probes_lost"] > 0


def counting_calls(monkeypatch, cls, name):
    """Count calls of method *name* on every instance of *cls*."""
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("attempts", [1, 2])
def test_answered_first_probes_skip_the_reply_policy_and_dig(monkeypatch, toy_network, attempts):
    net, routers = toy_network
    responses = counting_calls(monkeypatch, Router, "probe_response")
    digs = counting_calls(monkeypatch, RdnsStore, "dig")
    src = [(routers["src"], None)]
    targets = [f"198.18.5.{k}" for k in range(1, 41)]
    plan = FaultPlan(seed=5, probe_loss=0.2)
    injector = FaultInjector(plan)
    kernel = Tracerouter(net, attempts=attempts)
    net.attach_faults(injector)
    traces = vp_major(kernel, src, targets, [0])
    net.detach_faults()
    # Only the retries of lost first probes took the per-probe path.
    retried_answers = sum(1 for t in traces for hop in t.hops if hop.attempts > 1 and hop.responded)
    assert len(responses) == len(digs) == retried_answers
    assert injector.stats.probes_lost == kernel.probes_lost > 0
    assert (retried_answers > 0) == (attempts > 1)
    oracle_injector = FaultInjector(plan)
    oracle = OracleTracer(net, attempts=attempts)
    net.attach_faults(oracle_injector)
    assert traces == vp_major(oracle, src, targets, [0])
    net.detach_faults()
    assert kernel.counters() == oracle.counters()
    assert injector.stats.as_dict() == oracle_injector.stats.as_dict()


def test_rate_limited_plans_keep_the_per_probe_path(monkeypatch, toy_network):
    net, routers = toy_network
    responses = counting_calls(monkeypatch, Router, "probe_response")
    net.attach_faults(FaultInjector(FaultPlan(seed=5, probe_loss=0.2, rate_limit_share=0.5)))
    kernel = Tracerouter(net)
    vp_major(kernel, [(routers["src"], None)], ["10.0.0.14"], [0])
    net.detach_faults()
    assert len(responses) == kernel.probes_sent - kernel.probes_lost
