"""The route models as they stood before the shared shortest-path engine,
frozen as reference oracles.

Each model here runs its own equal-cost Dijkstra and ECMP walk-back over
``network._adj`` and keeps its own cache: valley-free per source, dropped
when the link count changes; hot-potato one intra-AS Dijkstra per AS hop
of every flow, with reachability read from the SPF tree of the
destination.  :mod:`repro.bias.routemodel` computes the same paths with
``Network.shortest_paths`` and ``walk_back``;
``tests/bias/test_routemodel.py`` checks that both give equal paths.
"""

from __future__ import annotations

import heapq

from repro.bias.routemodel import relax_unlabeled_asns
from repro.net.router import Router, _stable_hash
from repro.topology.asrel import AsGraph, valley_free_next_phase


_PHASES = ("up", "peer", "down")
_PHASE_INDEX = {phase: i for i, phase in enumerate(_PHASES)}


class ValleyFreeRouteModel:
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

    def __init__(self, as_graph: AsGraph) -> None:
        self.as_graph = as_graph
        #: src uid → (dist, preds) over states; invalidated when the
        #: topology grows (models attach to finished topologies).
        self._cache: "dict[str, tuple[dict, dict]]" = {}
        self._cache_links = -1

    # ------------------------------------------------------------------
    def _edge_phase(self, phase: str, asn_u: int, asn_v: int) -> "str | None":
        if asn_u == asn_v or not asn_u or not asn_v:
            return phase
        return valley_free_next_phase(
            phase, self.as_graph.rel_of(asn_u, asn_v)
        )

    def _sssp(self, network, src_uid: str):
        if self._cache_links != len(network.links):
            # New links mean new routers too (freshly attached VP
            # hosts); label them before computing policy paths.
            relax_unlabeled_asns(network)
            self._cache.clear()
            self._cache_links = len(network.links)
        cached = self._cache.get(src_uid)
        if cached is not None:
            return cached
        routers = network.routers
        start = (src_uid, "up")
        dist: "dict[tuple[str, str], float]" = {start: 0.0}
        preds: "dict[tuple[str, str], list[tuple[str, str]]]" = {start: []}
        heap = [(0.0, src_uid, "up")]
        while heap:
            d, u, phase = heapq.heappop(heap)
            state = (u, phase)
            if d > dist.get(state, float("inf")):
                continue
            asn_u = routers[u].asn
            for v, w, _link in network._adj[u]:
                next_phase = self._edge_phase(phase, asn_u, routers[v].asn)
                if next_phase is None:
                    continue
                nd = d + w
                nstate = (v, next_phase)
                old = dist.get(nstate, float("inf"))
                if nd < old - 1e-12:
                    dist[nstate] = nd
                    preds[nstate] = [state]
                    heapq.heappush(heap, (nd, v, next_phase))
                elif (
                    abs(nd - old) <= 1e-12
                    and state not in preds[nstate]
                    and w > 0
                ):
                    preds[nstate].append(state)
        self._cache[src_uid] = (dist, preds)
        return dist, preds

    def forwarding_path(
        self, network, src: Router, dst: Router, flow_id: object = 0
    ) -> "list[Router] | None":
        dist, preds = self._sssp(network, src.uid)
        terminals = [
            (dist[(dst.uid, phase)], _PHASE_INDEX[phase], phase)
            for phase in _PHASES
            if (dst.uid, phase) in dist
        ]
        if not terminals:
            return None
        _, _, best_phase = min(terminals)
        state = (dst.uid, best_phase)
        path_uids = [dst.uid]
        while state != (src.uid, "up"):
            options = preds[state]
            if len(options) == 1:
                state = options[0]
            else:
                ordered = sorted(options)
                choice = _stable_hash(
                    "vf-ecmp", flow_id, state[0], state[1]
                ) % len(ordered)
                state = ordered[choice]
            path_uids.append(state[0])
        path_uids.reverse()
        return [network.routers[uid] for uid in path_uids]


class HotPotatoRouteModel:
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
        self.as_graph = as_graph
        self._seen_links = -1
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
    def _intra_as_paths(self, network, start: Router):
        """Dijkstra restricted to *start*'s AS: uid → (dist, preds)."""
        asn = start.asn
        routers = network.routers
        dist = {start.uid: 0.0}
        preds: "dict[str, list[str]]" = {start.uid: []}
        heap = [(0.0, start.uid)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, float("inf")):
                continue
            for v, w, _link in network._adj[u]:
                if routers[v].asn != asn:
                    continue
                nd = d + w
                old = dist.get(v, float("inf"))
                if nd < old - 1e-12:
                    dist[v] = nd
                    preds[v] = [u]
                    heapq.heappush(heap, (nd, v))
                elif abs(nd - old) <= 1e-12 and u not in preds[v] and w > 0:
                    preds[v].append(u)
        return dist, preds

    @staticmethod
    def _walk_back(network, preds, src_uid: str, dst_uid: str, flow_id):
        path_uids = [dst_uid]
        node = dst_uid
        while node != src_uid:
            options = preds[node]
            if len(options) == 1:
                node = options[0]
            else:
                ordered = sorted(options)
                node = ordered[
                    _stable_hash("hp-ecmp", flow_id, node) % len(ordered)
                ]
            path_uids.append(node)
        path_uids.reverse()
        return path_uids

    def forwarding_path(
        self, network, src: Router, dst: Router, flow_id: object = 0
    ) -> "list[Router] | None":
        routers = network.routers
        if self._seen_links != len(network.links):
            # Freshly attached VP hosts arrive unlabelled; label them
            # before deciding the flow is un-segmentable.
            relax_unlabeled_asns(network)
            self._seen_links = len(network.links)
        if not src.asn or not dst.asn or src.asn == dst.asn:
            return None
        # Reachability oracle: the substrate's links are symmetric, so
        # distance-from-dst doubles as distance-to-dst.
        reach, _ = network._sssp(dst.uid)
        path_uids = [src.uid]
        current = src
        visited_asns = {src.asn}
        for _hop_budget in range(len(routers)):
            if current.asn == dst.asn:
                break
            dist, preds = self._intra_as_paths(network, current)
            candidates = []
            for border_uid, border_cost in dist.items():
                for v, _w, _link in network._adj[border_uid]:
                    neighbor = routers[v]
                    if neighbor.asn == current.asn or not neighbor.asn:
                        continue
                    if (
                        neighbor.asn in visited_asns
                        and neighbor.asn != dst.asn
                    ):
                        continue
                    if self.as_graph is not None and self.as_graph.rel_of(
                        current.asn, neighbor.asn
                    ) is None:
                        continue
                    if not self._advertises(
                        neighbor.asn, current.asn, dst.asn
                    ):
                        continue
                    if v not in reach:
                        continue
                    tiebreak = _stable_hash(
                        "hot-potato", flow_id, border_uid, v
                    )
                    candidates.append((border_cost, tiebreak, border_uid, v))
            if not candidates:
                return None
            _cost, _tb, border_uid, exit_uid = min(candidates)
            segment = self._walk_back(
                network, preds, current.uid, border_uid, flow_id
            )
            path_uids.extend(segment[1:])
            path_uids.append(exit_uid)
            current = routers[exit_uid]
            visited_asns.add(current.asn)
        else:
            return None
        # Final intra-AS segment inside the destination AS.
        dist, preds = self._intra_as_paths(network, current)
        if dst.uid not in dist:
            return None
        segment = self._walk_back(network, preds, current.uid, dst.uid, flow_id)
        path_uids.extend(segment[1:])
        return [routers[uid] for uid in path_uids]
