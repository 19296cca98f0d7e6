"""The AT&T wireline inference pipeline (§6, Appendix C).

AT&T's regional routers carry no rDNS, block probes from outside the
ISP, and hide their aggregation layer inside MPLS — so the cable
methodology does not transfer.  The pipeline instead:

1. **harvests lightspeed gateways** (lspgw) from the rDNS snapshot —
   their names geolocate the region (``…lightspeed.sndgca…``);
2. **bootstraps** with traceroutes from internal vantage points (Ark /
   Atlas probes on AT&T last-miles, McTraceroute WiFi hotspots) toward
   the lspgws, which reveals EdgeCO routers but not AggCOs;
3. **discovers router prefixes**: the non-lspgw intermediate hops fall
   into a handful of /24s per region (Table 6);
4. **exposes MPLS interiors** by tracerouting *to* every address in
   those prefixes (Direct Path Revelation, Table 5), which reveals the
   agg routers;
5. **groups addresses into routers** (alias resolution) and routers
   into COs: two routers one hop upstream of the same last-mile link
   share an EdgeCO (§6.2); backbone routers fully meshed to all agg
   routers share the single BackboneCO.
"""

from __future__ import annotations

import ipaddress
from collections import defaultdict
from dataclasses import dataclass, field

from repro.alias.resolve import AliasResolver, AliasSets
from repro.errors import InferenceError, MeasurementError
from repro.measure.traceroute import TraceResult, Tracerouter
from repro.measure.vantage import VantagePoint
from repro.net.network import Network
from repro.rdns.regexes import HostnameParser


@dataclass
class AttRegionTopology:
    """The inferred router- and CO-level topology of one region."""

    region: str
    #: Router groups keyed by a representative address.
    backbone_routers: "list[set[str]]" = field(default_factory=list)
    agg_routers: "list[set[str]]" = field(default_factory=list)
    edge_routers: "list[set[str]]" = field(default_factory=list)
    #: EdgeCOs: groups of edge-router representatives sharing last-mile links.
    edge_cos: "list[set[str]]" = field(default_factory=list)
    #: Inferred prefix classes (Table 6).
    edge_prefixes: "set[str]" = field(default_factory=set)
    agg_prefixes: "set[str]" = field(default_factory=set)
    #: Router-level edges between representatives.
    router_edges: "set[tuple[str, str]]" = field(default_factory=set)
    #: Whether both backbone routers connect to every agg router —
    #: the §6.2 evidence for a single BackboneCO.
    backbone_fully_meshed: bool = False

    @property
    def backbone_co_count(self) -> int:
        """One office when fully meshed, else one per backbone router."""
        if not self.backbone_routers:
            return 0
        return 1 if self.backbone_fully_meshed else len(self.backbone_routers)

    @property
    def routers_per_edge_co(self) -> float:
        """Mean router count per inferred EdgeCO (the paper's 2.0)."""
        if not self.edge_cos:
            return 0.0
        return sum(len(group) for group in self.edge_cos) / len(self.edge_cos)


class AttInferencePipeline:
    """Drives the §6 methodology for one telco-style ISP."""

    def __init__(
        self,
        network: Network,
        internal_vps: "list[VantagePoint]",
        parser: "HostnameParser | None" = None,
        isp_name: str = "att",
    ) -> None:
        if not internal_vps:
            raise MeasurementError("the AT&T pipeline needs internal vantage points")
        self.network = network
        self.internal_vps = list(internal_vps)
        self.parser = parser or HostnameParser()
        self.isp_name = isp_name
        self.tracer = Tracerouter(network)

    # ------------------------------------------------------------------
    # Step 1: lspgw harvest
    # ------------------------------------------------------------------
    def harvest_lspgw_targets(self) -> "dict[str, list[str]]":
        """Region tag → lspgw addresses, from the rDNS snapshot."""
        per_region: "dict[str, list[str]]" = defaultdict(list)
        for address, hostname in self.network.rdns.snapshot_items():
            parsed = self.parser.parse(hostname)
            if parsed is not None and parsed.isp == self.isp_name and parsed.role == "lspgw":
                per_region[parsed.region].append(address)
        return dict(per_region)

    def _lspgw_slash24s(self, lspgw_addresses: "list[str]") -> "set[str]":
        return {
            str(ipaddress.ip_network(f"{address}/24", strict=False))
            for address in lspgw_addresses
        }

    # ------------------------------------------------------------------
    # Steps 2-4: probing
    # ------------------------------------------------------------------
    def _sweep(self, targets: "list[str]", vps: "list[VantagePoint]") -> "list[TraceResult]":
        traces = []
        for vp in vps:
            for target in targets:
                trace = self.tracer.trace(vp.host, target, src_address=vp.src_address)
                trace.vp_name = vp.name
                if trace.hops:
                    traces.append(trace)
        return traces

    def bootstrap(self, lspgw_addresses: "list[str]",
                  extra_vps: "list[VantagePoint] | None" = None) -> "list[TraceResult]":
        """Step 2: internal traceroutes toward the region's lspgws."""
        vps = self.internal_vps + list(extra_vps or [])
        return self._sweep(sorted(lspgw_addresses), vps)

    def _segment_regions(self, trace: TraceResult) -> "list[tuple[str, str]]":
        """Attribute each responding hop to a regional network.

        Intra-region traces (no backbone hop) belong entirely to the
        region named in their lspgw hops; inter-region traces are split
        at the backbone hops — hops before the first backbone hop sit in
        the VP's own region, hops after the last sit in the target's
        (App. C's region association via BackboneCO rDNS).  Returns
        ``(address, region)`` pairs; unattributable hops get "".
        """
        hops = [h for h in trace.hops if h.address is not None]
        parsed = [self.parser.parse(h.rdns) for h in hops]
        backbone_idx = [
            i for i, p in enumerate(parsed)
            if p is not None and p.role == "backbone"
        ]
        lspgw_regions = [
            (i, p.region) for i, p in enumerate(parsed)
            if p is not None and p.role == "lspgw"
        ]
        out: "list[tuple[str, str]]" = []
        for i, hop in enumerate(hops):
            if parsed[i] is not None and parsed[i].role == "backbone":
                out.append((hop.address, ""))
                continue
            if backbone_idx:
                if i < backbone_idx[0]:
                    candidates = [r for j, r in lspgw_regions if j < backbone_idx[0]]
                elif i > backbone_idx[-1]:
                    candidates = [r for j, r in lspgw_regions if j > backbone_idx[-1]]
                else:
                    candidates = []
            else:
                candidates = [r for _j, r in lspgw_regions]
            out.append((hop.address, candidates[0] if candidates else ""))
        return out

    def discover_router_prefixes(
        self, traces: "list[TraceResult]", lspgw_addresses: "list[str]",
        region: str,
    ) -> "set[str]":
        """Step 3: the /24s holding one region's unnamed router addresses."""
        lspgw_nets = self._lspgw_slash24s(lspgw_addresses)
        prefixes: "set[str]" = set()
        for trace in traces:
            for address, hop_region in self._segment_regions(trace):
                if hop_region != region:
                    continue
                name = self.network.rdns.dig(
                    address, fault_key=("router-prefixes", region)
                )
                if self.parser.parse(name) is not None:
                    continue  # named hop: backbone or lspgw
                net = str(ipaddress.ip_network(f"{address}/24", strict=False))
                if net in lspgw_nets:
                    continue
                prefixes.add(net)
        return prefixes

    def extend_prefixes_from_dpr(
        self,
        dpr_traces: "list[TraceResult]",
        prefixes: "set[str]",
        lspgw_addresses: "list[str]",
    ) -> "set[str]":
        """Add /24s of newly revealed (DPR) hops to the prefix set.

        DPR probes target region infrastructure, so every unnamed hop
        past the last backbone hop belongs to the region — including
        the AggCO prefix that MPLS hid from the bootstrap (Table 6).
        """
        lspgw_nets = self._lspgw_slash24s(lspgw_addresses)
        extended = set(prefixes)
        for trace in dpr_traces:
            hops = [h for h in trace.hops if h.address is not None]
            parsed = [self.parser.parse(h.rdns) for h in hops]
            backbone_idx = [
                i for i, p in enumerate(parsed)
                if p is not None and p.role == "backbone"
            ]
            start = backbone_idx[-1] + 1 if backbone_idx else 0
            for hop, p in zip(hops[start:], parsed[start:]):
                if p is not None:
                    continue
                net = str(ipaddress.ip_network(f"{hop.address}/24", strict=False))
                if net not in lspgw_nets:
                    extended.add(net)
        return extended

    def dpr_sweep(self, prefixes: "set[str]",
                  extra_vps: "list[VantagePoint] | None" = None,
                  stride: int = 1) -> "list[TraceResult]":
        """Step 4: traceroute to every address of every router prefix.

        Targeting infrastructure addresses directly makes the MPLS LSPs
        route the probe as plain IP, revealing interior (agg) hops.
        In-region VPs (the McTraceroute hotspots) go first: their paths
        traverse the region in both directions, which is what exposes
        the full backbone↔agg mesh.
        """
        vps = list(extra_vps or []) + self.internal_vps
        targets = []
        for prefix in sorted(prefixes):
            network = ipaddress.ip_network(prefix)
            hosts = list(network)
            targets.extend(str(a) for a in hosts[::max(1, stride)])
        return self._sweep(targets, vps[:6])

    # ------------------------------------------------------------------
    # Step 5: routers and COs
    # ------------------------------------------------------------------
    def _alias_sets(self, addresses: "list[str]") -> AliasSets:
        resolver = AliasResolver(self.network, p2p_prefixlen=31)
        vp = self.internal_vps[0]
        return resolver.resolve(vp.host, addresses, src_address=vp.src_address)

    def build_region_topology(
        self,
        region: str,
        bootstrap_traces: "list[TraceResult]",
        dpr_traces: "list[TraceResult]",
        lspgw_addresses: "list[str]",
        region_prefixes: "set[str] | None" = None,
    ) -> AttRegionTopology:
        """Steps 5+: classify routers, group into COs, count offices."""
        lspgw_nets = self._lspgw_slash24s(lspgw_addresses)
        all_traces = bootstrap_traces + dpr_traces
        if region_prefixes is None:
            region_prefixes = self.discover_router_prefixes(
                bootstrap_traces, lspgw_addresses, region
            )

        def hop_kind(hop) -> str:
            if hop.address is None:
                return "silent"
            parsed = self.parser.parse(hop.rdns)
            if parsed is not None and parsed.role == "backbone":
                return "backbone"
            net = str(ipaddress.ip_network(f"{hop.address}/24", strict=False))
            if net in lspgw_nets or (
                parsed is not None and parsed.role == "lspgw"
            ):
                return "lspgw"
            if net in region_prefixes:
                return "router"
            return "other"

        # Collect addresses by classification and edge evidence: a
        # router hop immediately before a lspgw hop is an EdgeCO router
        # serving that last-mile /24.
        backbone_addrs: "set[str]" = set()
        router_addrs: "set[str]" = set()
        lastmile_of: "dict[str, set[str]]" = defaultdict(set)  # addr -> lspgw /24s
        adjacency: "set[tuple[str, str]]" = set()
        for trace in all_traces:
            hops = [h for h in trace.hops if h.address is not None]
            kinds = [hop_kind(h) for h in hops]
            for position, (hop, kind) in enumerate(zip(hops, kinds)):
                if kind == "backbone":
                    backbone_addrs.add(hop.address)
                elif kind == "router" and position < len(hops) - 1:
                    # Only transit (TTL-expired) hops are routers; an
                    # address that only ever answers as the final echo
                    # is an end device (DSLAM port, customer CPE).
                    router_addrs.add(hop.address)
            for (h1, k1), (h2, k2) in zip(
                zip(hops, kinds), zip(hops[1:], kinds[1:])
            ):
                if k1 == "router" and k2 == "lspgw":
                    net = str(ipaddress.ip_network(f"{h2.address}/24", strict=False))
                    lastmile_of[h1.address].add(net)
                if k1 in ("backbone", "router") and k2 in ("backbone", "router"):
                    adjacency.add((h1.address, h2.address))

        aliases = self._alias_sets(sorted(router_addrs | backbone_addrs))

        def rep(address: str) -> str:
            group = aliases.group_of(address)
            return min(group) if group else address

        # Routers one hop above a last-mile link are edge routers; the
        # remaining unnamed routers surfaced by DPR are agg routers.
        edge_reps: "dict[str, set[str]]" = defaultdict(set)  # rep -> lastmile nets
        for address, nets in lastmile_of.items():
            edge_reps[rep(address)].update(nets)
        all_reps = {rep(a) for a in router_addrs}

        router_edges = {
            (rep(a), rep(b)) for a, b in adjacency if rep(a) != rep(b)
        }
        # The region's own backbone routers are the named backbone hops
        # directly adjacent to its regional routers; other backbone
        # hops on the paths belong to the long-haul network.
        backbone_candidates = {rep(a) for a in backbone_addrs}
        backbone_reps = {
            bb for bb in backbone_candidates
            if any(
                (bb, other) in router_edges or (other, bb) in router_edges
                for other in all_reps
            )
        }
        router_edges = {
            (a, b) for a, b in router_edges
            if (a in all_reps or a in backbone_reps)
            and (b in all_reps or b in backbone_reps)
        }
        agg_reps = all_reps - set(edge_reps) - backbone_reps

        # EdgeCO grouping: routers sharing a last-mile /24 share a CO.
        co_of: "dict[str, int]" = {}
        cos: "list[set[str]]" = []
        net_to_co: "dict[str, int]" = {}
        for edge_rep, nets in sorted(edge_reps.items()):
            existing = {net_to_co[n] for n in nets if n in net_to_co}
            if existing:
                index = min(existing)
            else:
                index = len(cos)
                cos.append(set())
            cos[index].add(edge_rep)
            for net in nets:
                net_to_co[net] = index
        edge_cos = [group for group in cos if group]

        # Backbone mesh check (§6.2): every backbone rep adjacent to
        # every agg rep implies a single BackboneCO.  A small tolerance
        # absorbs ECMP coverage gaps (a combination that no observed
        # flow happened to traverse).
        combos = [
            (bb, agg) for bb in backbone_reps for agg in agg_reps
        ]
        observed = sum(
            1 for bb, agg in combos
            if (bb, agg) in router_edges or (agg, bb) in router_edges
        )
        fully_meshed = bool(combos) and observed >= 0.85 * len(combos)

        def groups_of(reps: "set[str]") -> "list[set[str]]":
            out = []
            for group_rep in sorted(reps):
                group = aliases.group_of(group_rep)
                out.append(set(group) if group else {group_rep})
            return out

        def prefixes_of(reps: "set[str]") -> "set[str]":
            nets = set()
            for group in groups_of(reps):
                for address in group:
                    nets.add(str(ipaddress.ip_network(f"{address}/24", strict=False)))
            return nets

        return AttRegionTopology(
            region=region,
            backbone_routers=groups_of(backbone_reps),
            agg_routers=groups_of(agg_reps),
            edge_routers=groups_of(set(edge_reps)),
            edge_cos=edge_cos,
            edge_prefixes=prefixes_of(set(edge_reps)),
            agg_prefixes=prefixes_of(agg_reps),
            router_edges=router_edges,
            backbone_fully_meshed=fully_meshed,
        )

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------
    def run_region(self, region: str,
                   extra_vps: "list[VantagePoint] | None" = None,
                   dpr_stride: int = 1) -> AttRegionTopology:
        """The full §6 pipeline for one region tag (e.g. ``sndgca``)."""
        per_region = self.harvest_lspgw_targets()
        try:
            lspgws = per_region[region]
        except KeyError as exc:
            raise InferenceError(
                f"no lightspeed gateways found for region {region!r}"
            ) from exc
        bootstrap_traces = self.bootstrap(lspgws, extra_vps=extra_vps)
        prefixes = self.discover_router_prefixes(bootstrap_traces, lspgws, region)
        dpr_traces = self.dpr_sweep(prefixes, extra_vps=extra_vps, stride=dpr_stride)
        prefixes = self.extend_prefixes_from_dpr(dpr_traces, prefixes, lspgws)
        return self.build_region_topology(
            region, bootstrap_traces, dpr_traces, lspgws,
            region_prefixes=prefixes,
        )
