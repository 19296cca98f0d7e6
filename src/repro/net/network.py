"""The simulated internet: routers, links, and packet forwarding.

:class:`Network` is the substrate every measurement tool probes.  It
computes forwarding paths with a delay-weighted shortest-path search
(cached single-source runs and per-source path walks, so campaigns from
a few vantage points to many thousands of targets stay fast), supports
equal-cost multipath with per-flow deterministic tie-breaking
(paris-traceroute keeps the flow fixed, so a flow sees a stable path),
applies MPLS visibility rules, and answers probes according to each
router's reply policy.  The same equal-cost search
(:meth:`Network.shortest_paths`) and walk-back (:func:`walk_back`) serve
the policy route models of :mod:`repro.bias.routemodel`, over their own
states and edge rules.

Ground truth lives in router/CO annotations; the measurement API
deliberately exposes only what a real prober could see: reply
addresses, reply TTLs, RTTs, and rDNS.
"""

from __future__ import annotations

import heapq
import ipaddress
from typing import Iterable, Optional

from repro.errors import RoutingError, TopologyError
from repro.net.addresses import IPAddress, normalize_address, parse_ip
from repro.net.dns import RdnsStore
from repro.net.link import PER_HOP_PROCESSING_MS, Link
from repro.net.mpls import MplsDomain
from repro.net.router import Interface, Router, _extend_hash, _hash_prefix
# Re-exported: tooling that wraps the probe-path hash rebinds it in
# every repro module that imports it by name, this one included.
from repro.net.router import _stable_hash  # noqa: F401


class Network:
    """A collection of routers and links that forwards probe packets."""

    def __init__(self) -> None:
        self.routers: dict[str, Router] = {}
        self.links: list[Link] = []
        self.rdns = RdnsStore()
        self.mpls = MplsDomain()
        #: Active fault injector (None ⇒ the fault-free substrate).
        self.faults = None
        #: Pluggable routing policy (None ⇒ delay-weighted SPF).  A
        #: route model exposes ``forwarding_path(network, src, dst,
        #: flow_id)`` and may return None for flows it declines to
        #: route, which fall back to the default SPF.
        self.route_model = None
        self._addr_owner: dict[str, Interface] = {}
        # Longest-prefix "attraction" routes: traffic to any address in
        # the prefix is delivered to the given router even when no
        # interface owns the address (e.g. unused addresses of an
        # EdgeCO's customer /24).  Keyed (version, prefixlen, network
        # as int); _prefix_masks lists each version's (prefixlen, mask)
        # pairs longest first, so the first hit is the longest match.
        self._prefix_routes: dict[tuple[int, int, int], Router] = {}
        self._prefix_masks: dict[int, list[tuple[int, int]]] = {}
        self._adj: dict[str, list[tuple[str, float, Link]]] = {}
        # (prev uid, cur uid) -> (inbound interface at cur, its link's
        # delay plus per-hop processing); the first link between two
        # routers wins, as in an adjacency scan.
        self._hops: dict[tuple[str, str], tuple[Interface, float]] = {}
        # Derived routing state, all dropped by _changed().  Shortest-path
        # trees: an SPF tree under its source uid, a route model's tree
        # under (edge rule, start state).
        self._sssp_cache: dict[object, tuple[dict, dict]] = {}
        # src uid -> (flow text, {dst uid: SPF path}): the walks of one
        # source's current flow.  A paris flow key is constant per
        # vantage point, so a campaign walks each path once.
        self._walks: dict[str, tuple[str, dict[str, list[Router]]]] = {}
        # uid -> connected-component label (see components()).
        self._components: Optional[dict[str, str]] = None
        #: Mutation counter: bumps whenever a router, interface, link
        #: or prefix route is added, so layers that memoise probe facts
        #: (the tracer's plan cache) know when to drop them.
        self.version = 0
        #: Hosts attached so far: ``attach_host`` numbers them per network.
        self.hosts_attached = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_router(self, router: Router) -> Router:
        """Register a router (uids must be unique)."""
        if router.uid in self.routers:
            raise TopologyError(f"duplicate router uid {router.uid!r}")
        self.routers[router.uid] = router
        self._changed()
        self._adj.setdefault(router.uid, [])
        for iface in router.interfaces:
            self._register_interface(iface)
        return router

    def _register_interface(self, iface: Interface) -> None:
        key = iface.text
        if key in self._addr_owner:
            raise TopologyError(f"address {key} assigned twice")
        self._addr_owner[key] = iface

    def add_interface(self, router: Router, address: "str | IPAddress", prefixlen: int, name: str = "") -> Interface:
        """Add an interface to an already-registered router."""
        iface = router.add_interface(address, prefixlen, name=name)
        self._register_interface(iface)
        self._changed()
        return iface

    def connect(
        self,
        router_a: Router,
        router_b: Router,
        addr_a: "str | IPAddress",
        addr_b: "str | IPAddress",
        prefixlen: int = 30,
        length_km: float = 1.0,
        extra_delay_ms: float = 0.0,
        metric: "float | None" = None,
        ring: object = None,
    ) -> Link:
        """Create a point-to-point link with the given interface addresses."""
        iface_a = self.add_interface(router_a, addr_a, prefixlen)
        iface_b = self.add_interface(router_b, addr_b, prefixlen)
        link = Link(iface_a, iface_b, length_km=length_km,
                    extra_delay_ms=extra_delay_ms, metric=metric, ring=ring)
        self.links.append(link)
        weight = link.routing_weight
        self._adj[router_a.uid].append((router_b.uid, weight, link))
        self._adj[router_b.uid].append((router_a.uid, weight, link))
        hop_ms = link.delay_ms + PER_HOP_PROCESSING_MS
        for prev, cur in ((router_a, router_b), (router_b, router_a)):
            inbound = link.a if link.a.router is cur else link.b
            self._hops.setdefault((prev.uid, cur.uid), (inbound, hop_ms))
        self._changed()
        return link

    def add_prefix_route(self, prefix: "str | ipaddress.IPv4Network | ipaddress.IPv6Network", router: Router) -> None:
        """Route all traffic for *prefix* to *router* (longest match wins)."""
        net = ipaddress.ip_network(prefix) if isinstance(prefix, str) else prefix
        self._prefix_routes[(net.version, net.prefixlen, int(net.network_address))] = router
        masks = self._prefix_masks.setdefault(net.version, [])
        if all(plen != net.prefixlen for plen, _mask in masks):
            masks.append((net.prefixlen, int(net.netmask)))
            masks.sort(reverse=True)
        self._changed()

    def _changed(self) -> None:
        """Record a mutation: bump :attr:`version`, drop derived routes.

        Every shortest-path tree (SPF or a route model's), every SPF
        walk and the component labels are functions of the topology
        (and of the ASN labels route models settle per version), so
        one rule keeps them all current.
        """
        self.version += 1
        self._sssp_cache.clear()
        self._walks.clear()
        self._components = None

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def attach_faults(self, injector) -> None:
        """Activate a :class:`~repro.faults.injector.FaultInjector`.

        The injector is consulted by the probing engines and the rDNS
        store; detach (pass ``None``) to restore the fault-free
        substrate.  Attachment changes no topology state, so it is safe
        to attach around a campaign and detach afterwards.
        """
        self.faults = injector
        self.rdns.faults = injector

    def detach_faults(self) -> None:
        """Remove any active fault injector."""
        self.attach_faults(None)

    # ------------------------------------------------------------------
    # Address resolution
    # ------------------------------------------------------------------
    def owner_interface(self, address: "str | IPAddress") -> Optional[Interface]:
        """The interface that owns *address*, if any."""
        return self._addr_owner.get(normalize_address(address))

    def owner_router(self, address: "str | IPAddress") -> Optional[Router]:
        """The router that owns *address* as an interface or loopback."""
        iface = self.owner_interface(address)
        if iface is not None:
            return iface.router
        key = normalize_address(address)
        for router in self.routers.values():
            if router.loopback is not None and str(router.loopback) == key:
                return router
        return None

    def route_target(self, address: "str | IPAddress") -> "tuple[Optional[Router], bool]":
        """Resolve a probe destination to (delivering router, address exists).

        A non-existent address inside a routed prefix is delivered to
        the prefix's router (which will not answer an echo for it); an
        address outside all prefixes is unroutable.  Canonical text (a
        probe engine normalises each destination once) is looked up as
        is; any other spelling is normalised first.
        """
        iface = self._addr_owner.get(address)
        if iface is None:
            iface = self._addr_owner.get(normalize_address(address))
        if iface is not None:
            return iface.router, True
        addr = parse_ip(address)
        value = int(addr)
        for plen, mask in self._prefix_masks.get(addr.version, ()):
            router = self._prefix_routes.get((addr.version, plen, value & mask))
            if router is not None:
                return router, False
        return None, False

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def shortest_paths(self, start, rule=None) -> "tuple[dict, dict]":
        """Equal-cost shortest paths from *start*: ``(dist, preds)``.

        Without a *rule* the states are router uids and every link is a
        step: delay-weighted SPF.  With one, a state is a tuple whose
        first item is the uid of the router it sits at (a route model's
        ``(uid, phase)``), and ``rule(state, here, there)`` names the
        state reached by crossing a link from *state* at router *here*
        to router *there*, or None where the rule forbids the step.
        Every equal-cost predecessor is kept, for :func:`walk_back`.
        Trees are cached until the next mutation, per start for SPF and
        per ``(rule, start)`` otherwise, so a rule must be a stable
        object (a function or bound method).
        """
        key = start if rule is None else (rule, start)
        cached = self._sssp_cache.get(key)
        if cached is not None:
            return cached
        routers = self.routers
        dist: dict = {start: 0.0}
        preds: dict = {start: []}
        heap = [(0.0, start)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            if rule is None:
                here = u
            else:
                here = u[0]
                at = routers[here]
            for v, w, _link in self._adj[here]:
                if rule is None:
                    state = v
                else:
                    state = rule(u, at, routers[v])
                    if state is None:
                        continue
                nd = d + w
                old = dist.get(state, float("inf"))
                if nd < old - 1e-12:
                    dist[state] = nd
                    preds[state] = [u]
                    heapq.heappush(heap, (nd, state))
                elif abs(nd - old) <= 1e-12 and u not in preds[state] and w > 0:
                    # Zero-weight ties would make u and v each other's
                    # predecessors and trap the path walk in a cycle.
                    preds[state].append(u)
        self._sssp_cache[key] = (dist, preds)
        return dist, preds

    def _sssp(self, src_uid: str) -> "tuple[dict[str, float], dict[str, list[str]]]":
        """The delay-weighted SPF tree of *src_uid*."""
        return self.shortest_paths(src_uid)

    def components(self) -> "dict[str, str]":
        """Router uid → connected-component label, once per version.

        Two routers share a label exactly when some path joins them,
        whatever the weights; links are symmetric.
        """
        if self._components is None:
            labels: dict[str, str] = {}
            for root in self._adj:
                if root in labels:
                    continue
                labels[root] = root
                stack = [root]
                while stack:
                    for v, _w, _link in self._adj[stack.pop()]:
                        if v not in labels:
                            labels[v] = root
                            stack.append(v)
            self._components = labels
        return self._components

    def forwarding_path(
        self, src: Router, dst: Router, flow_id: object = 0
    ) -> "list[Router]":
        """The router-level path a flow takes from *src* to *dst*.

        Equal-cost choices are broken deterministically by a hash of the
        flow id and the node, so a fixed flow (paris-traceroute) always
        sees one stable path while different flows may diverge.

        When a :attr:`route_model` is attached it is consulted first;
        a model that returns None for this flow falls through to the
        default delay-weighted SPF below.  SPF walks are memoised per
        source for its most recent flow, so the returned list may be
        shared with other callers: it must not be mutated.
        """
        if self.route_model is not None:
            modeled = self.route_model.forwarding_path(
                self, src, dst, flow_id
            )
            if modeled is not None:
                return modeled
        flow = str(flow_id)
        walk = self._walks.get(src.uid)
        if walk is None or walk[0] != flow:
            walk = self._walks[src.uid] = (flow, {})
        path = walk[1].get(dst.uid)
        if path is None:
            path = walk[1][dst.uid] = self._walk(src.uid, dst.uid, flow)
        return path

    def _walk(self, src_uid: str, dst_uid: str, flow: str) -> "list[Router]":
        """Walk the shortest-path tree of *src_uid* back from *dst_uid*."""
        dist, preds = self._sssp(src_uid)
        if dst_uid not in dist:
            raise RoutingError(f"no route from {src_uid} to {dst_uid}")
        return [self.routers[uid] for uid in walk_back(preds, src_uid, dst_uid, ("ecmp", flow))]

    def _hop(self, prev: Router, cur: Router) -> "tuple[Interface, float]":
        """(inbound interface at *cur*, hop delay) for one path step."""
        try:
            return self._hops[(prev.uid, cur.uid)]
        except KeyError:
            raise RoutingError(f"no link between {prev.uid} and {cur.uid}") from None

    def hop_plan(
        self, path: "list[Router]", visible: "list[Router]"
    ) -> "list[tuple[Router, Optional[Interface], float]]":
        """What a traceroute along *path* can see, hop by hop.

        One ``(router, inbound interface, cumulative one-way delay)``
        per router of ``visible[1:]``, in TTL order: *visible* is the
        MPLS filter of *path* (:meth:`MplsDomain.visible_path`) and the
        per-step facts are those of :meth:`inbound_interfaces` and
        :meth:`path_delays_ms`, read from the link table ``connect``
        maintains.
        """
        facts = {path[0].uid: (None, 0.0)}
        total = 0.0
        for prev, cur in zip(path, path[1:]):
            inbound, hop_ms = self._hop(prev, cur)
            total += hop_ms
            facts[cur.uid] = (inbound, total)
        return [(router, *facts[router.uid]) for router in visible[1:]]

    def path_delays_ms(self, path: "list[Router]") -> "list[float]":
        """Cumulative one-way *physical* delay at each router of *path*.

        Routing may follow configured metrics, but latency always
        follows the fiber: this walks the actual links taken.
        """
        delays = [0.0]
        total = 0.0
        for prev, cur in zip(path, path[1:]):
            total += self._hop(prev, cur)[1]
            delays.append(total)
        return delays

    def path_delay_ms(self, src: Router, dst: Router, flow_id: object = 0) -> float:
        """One-way physical delay along the forwarding path, in ms."""
        path = self.forwarding_path(src, dst, flow_id=flow_id)
        return self.path_delays_ms(path)[-1]

    def inbound_interfaces(self, path: "list[Router]") -> "list[Optional[Interface]]":
        """For each router on *path*, the interface the packet arrived on.

        The first element (the source) has no inbound interface.  The
        inbound interface determines the ICMP reply address for routers
        with an ``inbound`` reply policy.
        """
        result: "list[Optional[Interface]]" = [None]
        for prev, cur in zip(path, path[1:]):
            step = self._hops.get((prev.uid, cur.uid))
            result.append(step[0] if step is not None else None)
        return result

    def neighbors(self, router: Router) -> "list[Router]":
        """Directly connected routers."""
        return [self.routers[uid] for uid, _w, _l in self._adj[router.uid]]

    def degree(self, router: Router) -> int:
        """Number of links attached to *router*."""
        return len(self._adj[router.uid])

    # ------------------------------------------------------------------
    # Convenience iteration
    # ------------------------------------------------------------------
    def all_addresses(self) -> Iterable[str]:
        """Every assigned interface address."""
        return self._addr_owner.keys()


def walk_back(preds: dict, src, dst, key: tuple) -> list:
    """The states of one equal-cost path from *src* to *dst*.

    Walks :meth:`Network.shortest_paths` predecessors back from *dst*.
    Where a state has several, the choice indexes the sorted options by
    ``_stable_hash(*key, *state)`` (a uid state is one part), so one
    flow always takes one path; *key* is the caller's tie-break head,
    such as ``("ecmp", flow)``.
    """
    path = [dst]
    node = dst
    head = None  # hash state for the key, made on the first tie
    while node != src:
        options = preds[node]
        if len(options) == 1:
            node = options[0]
        else:
            if head is None:
                head = _hash_prefix("|".join(map(str, key)) + "|")
            # Sorting the cached list in place makes every later walk's
            # sort a no-op pass instead of a fresh copy.
            options.sort()
            tail = node if isinstance(node, str) else "|".join(map(str, node))
            node = options[_extend_hash(head, tail) % len(options)]
        path.append(node)
    path.reverse()
    return path
