"""Route-model variants: policy routing beyond delay-weighted SPF.

The substrate's default forwarding is delay-weighted shortest path,
which real inter-domain routing only approximates.  This module makes
the approximation explicit and swappable so one ground truth yields
differently-biased corpora:

* :class:`ValleyFreeRouteModel` — Gao export policy over the
  AS-relationship graph (uphill ``c2p*``, at most one ``p2p``,
  downhill ``p2c*``), implemented as a shortest path over ``(router,
  phase)`` states.  The backbone generators today fake this with a
  metric penalty on ISP backbone links (see
  ``BaseIsp.mesh_backbone``); the model is the principled version.
* :class:`HotPotatoRouteModel` — per-ISP early-exit: each AS hands the
  packet to its *cheapest* usable border exit measured from the
  ingress, ignoring the cost beyond the border.

Both run the substrate's one equal-cost engine
(:meth:`~repro.net.network.Network.shortest_paths` with their own edge
rule, and :func:`~repro.net.network.walk_back`), so their trees share
the SPF cache and its drop rule.  Both keep the default's
paris-traceroute contract: equal-cost choices are broken by a
deterministic hash of the flow id, so a fixed flow sees one stable
path.  ASN annotations come from ground truth (:func:`annotate_asns`)
— route models are substrate configuration, not inference, so reading
ground truth here is in-bounds.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.net.network import walk_back
from repro.net.router import Router, _stable_hash
from repro.topology.asrel import AsGraph, valley_free_next_phase

#: Ground-truth ASNs for the non-ISP substrate pieces (transit gets a
#: Lumen-like number, clouds their real registry numbers).
TRANSIT_ASN = 3356
CLOUD_ASNS = {"aws": 16509, "azure": 8075, "gcp": 15169}

#: Names accepted by :func:`build_route_model` (``spf`` = default).
ROUTE_MODELS = ("spf", "valley-free", "hot-potato")


def relax_unlabeled_asns(network) -> None:
    """Give asn-0 routers the ASN of a labelled neighbour.

    Hosts (VPs, VMs, customer CPEs) hang off exactly one router; a few
    relaxation passes settle chains, deterministically taking the
    smallest neighbour ASN first.  Re-runnable: vantage points attach
    *after* a route model is built, so the models call this again
    whenever the topology has grown.
    """
    for _ in range(3):
        changed = False
        for router in network.routers.values():
            if router.asn:
                continue
            neighbor_asns = sorted(
                n.asn for n in network.neighbors(router) if n.asn
            )
            if neighbor_asns:
                router.asn = neighbor_asns[0]
                changed = True
        if not changed:
            break


def annotate_asns(internet) -> "dict[str, int]":
    """Assign every router its ground-truth ASN; returns uid → asn.

    ISP routers already carry their ISP's ASN (``BaseIsp.new_router``);
    transit and cloud routers are recognized by uid, and everything
    else inherits a neighbour's ASN via :func:`relax_unlabeled_asns`.
    """
    network = internet.network
    for router in network.routers.values():
        if router.asn:
            continue
        uid = router.uid
        if uid.startswith("transit-"):
            router.asn = TRANSIT_ASN
        else:
            for provider, asn in CLOUD_ASNS.items():
                if uid.startswith(f"cloud-{provider}-"):
                    router.asn = asn
                    break
    relax_unlabeled_asns(network)
    return {r.uid: r.asn for r in network.routers.values()}


def build_as_graph(internet) -> AsGraph:
    """The ground-truth AS-relationship graph of the simulated internet.

    The transit backbone provides transit to every ISP and cloud
    (``p2c``); ISPs of the same access class peer with each other
    (``p2p``) — the classic shape under which an eyeball network must
    never carry traffic *between* two transit routers.
    """
    graph = AsGraph()
    edge_asns = []
    for isp in (internet.comcast, internet.charter, internet.att):
        if isp is not None and isp.asn:
            edge_asns.append(isp.asn)
    for asn in edge_asns:
        graph.add_relationship(TRANSIT_ASN, asn, "p2c")
    for asn in CLOUD_ASNS.values():
        graph.add_relationship(TRANSIT_ASN, asn, "p2c")
    for i, asn_a in enumerate(edge_asns):
        for asn_b in edge_asns[i + 1:]:
            graph.add_relationship(asn_a, asn_b, "p2p")
    return graph


def build_route_model(internet, name: str):
    """Construct the named route model over *internet* (None for spf).

    Annotates ASNs as a side effect — both policy models need every
    router labelled before the first path is computed.
    """
    if name not in ROUTE_MODELS:
        raise TopologyError(
            f"unknown route model {name!r} (expected one of {ROUTE_MODELS})"
        )
    if name == "spf":
        return None
    annotate_asns(internet)
    graph = build_as_graph(internet)
    if name == "valley-free":
        return ValleyFreeRouteModel(graph)
    return HotPotatoRouteModel(graph)


_PHASES = ("up", "peer", "down")
_PHASE_INDEX = {phase: i for i, phase in enumerate(_PHASES)}


class _PolicyRouteModel:
    """What both policy models share: the AS graph and ASN labelling."""

    def __init__(self, as_graph: "AsGraph | None") -> None:
        self.as_graph = as_graph
        #: Network version whose routers were last labelled.
        self._labelled = None

    def _label(self, network) -> None:
        """Label routers attached since the last call (vantage-point
        hosts arrive unlabelled, after the model is built)."""
        if self._labelled != network.version:
            relax_unlabeled_asns(network)
            self._labelled = network.version


class ValleyFreeRouteModel(_PolicyRouteModel):
    """Valley-free policy routing as a state-space shortest path.

    States are ``(router, phase)``; crossing an inter-AS link consults
    :func:`~repro.topology.asrel.valley_free_next_phase` (intra-AS and
    un-annotated links are phase-neutral).  Within the valley-free path
    set the cheapest-delay path wins, with the default engine's
    deterministic per-flow tie-break.  Unreachable-under-policy flows
    return None and fall back to SPF — a probe is forwarded *somehow*
    in the real world too; the bias is in which paths policy prefers.
    """

    name = "valley-free"

    def _step(self, state, here: Router, there: Router):
        """The Gao phase rule, as an edge rule for ``shortest_paths``."""
        phase = state[1]
        if here.asn != there.asn and here.asn and there.asn:
            phase = valley_free_next_phase(
                phase, self.as_graph.rel_of(here.asn, there.asn)
            )
            if phase is None:
                return None
        return (there.uid, phase)

    def forwarding_path(
        self, network, src: Router, dst: Router, flow_id: object = 0
    ) -> "list[Router] | None":
        self._label(network)
        start = (src.uid, "up")
        dist, preds = network.shortest_paths(start, self._step)
        terminals = [
            (dist[(dst.uid, phase)], _PHASE_INDEX[phase], phase)
            for phase in _PHASES
            if (dst.uid, phase) in dist
        ]
        if not terminals:
            return None
        _, _, best_phase = min(terminals)
        states = walk_back(
            preds, start, (dst.uid, best_phase), ("vf-ecmp", flow_id)
        )
        return [network.routers[uid] for uid, _phase in states]


class HotPotatoRouteModel(_PolicyRouteModel):
    """Per-AS early-exit (hot-potato) routing.

    At each AS boundary the current AS picks the border link whose
    *internal* cost from the ingress is smallest — ignoring everything
    beyond the border, which is exactly the bias hot-potato introduces
    (§5's asymmetric entry/exit observations are one symptom).  Exits
    into already-visited ASes are excluded so the walk always
    progresses; flows the model cannot segment (same-AS endpoints,
    unlabelled routers, no usable exit) fall back to SPF via None.
    """

    name = "hot-potato"

    def __init__(self, as_graph: "AsGraph | None" = None) -> None:
        #: Restricts usable exits to BGP neighbours that would actually
        #: advertise a route to the destination (export rule below);
        #: without a graph every inter-AS link is assumed usable.
        super().__init__(as_graph)
        self._cones: "dict[int, frozenset[int]]" = {}
        self._vf_reach: "dict[int, frozenset[int]]" = {}

    # ------------------------------------------------------------------
    # BGP export rule: which neighbours offer a route to the dst AS
    # ------------------------------------------------------------------
    def _customer_cone(self, asn: int) -> "frozenset[int]":
        cone = self._cones.get(asn)
        if cone is None:
            seen = set()
            frontier = [asn]
            while frontier:
                nxt = frontier.pop()
                for customer in self.as_graph.customers_of(nxt):
                    if customer not in seen:
                        seen.add(customer)
                        frontier.append(customer)
            cone = frozenset(seen)
            self._cones[asn] = cone
        return cone

    def _valley_free_reach(self, asn: int) -> "frozenset[int]":
        """ASes *asn* holds any valley-free route to."""
        reach = self._vf_reach.get(asn)
        if reach is None:
            seen = {(asn, "up")}
            frontier = [(asn, "up")]
            while frontier:
                cur, phase = frontier.pop()
                for neighbor in self.as_graph.neighbors_of(cur):
                    nxt = valley_free_next_phase(
                        phase, self.as_graph.rel_of(cur, neighbor)
                    )
                    if nxt is not None and (neighbor, nxt) not in seen:
                        seen.add((neighbor, nxt))
                        frontier.append((neighbor, nxt))
            reach = frozenset(a for a, _phase in seen)
            self._vf_reach[asn] = reach
        return reach

    def _advertises(self, n_asn: int, c_asn: int, d_asn: int) -> bool:
        """Would AS *n* advertise a route toward *d* to AS *c*?

        The Gao export rule: an AS exports customer routes (and its
        own) to everyone, but peer- or provider-learned routes only to
        its customers.  This is what keeps literal nearest-exit from
        walking into a stub AS that never offered the route.
        """
        if self.as_graph is None:
            return True
        if n_asn == d_asn or d_asn in self._customer_cone(n_asn):
            return True
        if self.as_graph.rel_of(n_asn, c_asn) != "p2c":
            return False
        return d_asn in self._valley_free_reach(n_asn)

    # ------------------------------------------------------------------
    @staticmethod
    def _hop(state, here: Router, there: Router):
        """Edge rule of an ingress tree: ``(uid,)`` states span the
        ingress's AS, and each link out of it to a labelled router ends
        in an ``(exit uid, border uid)`` state, where the tree stops."""
        if len(state) == 2:
            return None
        if there.asn == here.asn:
            return (there.uid,)
        return (there.uid, here.uid) if there.asn else None

    def forwarding_path(
        self, network, src: Router, dst: Router, flow_id: object = 0
    ) -> "list[Router] | None":
        routers = network.routers
        self._label(network)
        if not src.asn or not dst.asn or src.asn == dst.asn:
            return None
        components = network.components()
        if components[src.uid] != components[dst.uid]:
            return None  # no exit can lead to dst
        tiebreak = ("hp-ecmp", flow_id)
        path_uids = [src.uid]
        current = src
        visited_asns = {src.asn}
        for _hop_budget in range(len(routers)):
            if current.asn == dst.asn:
                break
            start = (current.uid,)
            dist, preds = network.shortest_paths(start, self._hop)
            candidates = []
            for state in dist:
                if len(state) == 1:
                    continue
                v, border_uid = state
                asn = routers[v].asn
                if asn in visited_asns and asn != dst.asn:
                    continue
                if self.as_graph is not None and self.as_graph.rel_of(
                    current.asn, asn
                ) is None:
                    continue
                if not self._advertises(asn, current.asn, dst.asn):
                    continue
                tb = _stable_hash("hot-potato", flow_id, border_uid, v)
                candidates.append((dist[(border_uid,)], tb, border_uid, v))
            if not candidates:
                return None
            _cost, _tb, border_uid, exit_uid = min(candidates)
            segment = walk_back(preds, start, (border_uid,), tiebreak)
            path_uids.extend(uid for uid, in segment[1:])
            path_uids.append(exit_uid)
            current = routers[exit_uid]
            visited_asns.add(current.asn)
        else:
            return None
        # Final intra-AS segment inside the destination AS.
        start = (current.uid,)
        dist, preds = network.shortest_paths(start, self._hop)
        if (dst.uid,) not in dist:
            return None
        segment = walk_back(preds, start, (dst.uid,), tiebreak)
        path_uids.extend(uid for uid, in segment[1:])
        return [routers[uid] for uid in path_uids]
