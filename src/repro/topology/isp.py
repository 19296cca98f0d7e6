"""Shared machinery for ISP topology generators.

Each concrete generator (cable, telco, mobile) builds its routers and
links into one shared :class:`~repro.net.network.Network`, records the
ground truth in :class:`~repro.topology.co.Region` objects, and wires
its BackboneCOs into the ISP's national backbone so that probes from
anywhere on the simulated internet can enter its regions.

The module-level selection helpers are a measurement campaign's view of
an ISP — which vantage points sit outside it, and which addresses a
§5.1 campaign targets — shared by the inference pipeline, the bias lab
and the VP-placement optimizer.
"""

from __future__ import annotations

import ipaddress
import random
from typing import Optional

from repro.errors import TopologyError
from repro.net.addresses import Ipv4Allocator
from repro.net.network import Network
from repro.net.router import ReplyPolicy, Router
from repro.topology.co import BackbonePop, CentralOffice, CoKind, Region
from repro.topology.geography import City, Geography


def split_vps(isp, vps) -> "tuple[list, list]":
    """``(external, internal)``: *vps* split by whether their probe
    source lies outside or inside *isp*'s address pool (order kept)."""
    external, internal = [], []
    for vp in vps:
        inside = ipaddress.ip_address(vp.src_address) in isp.allocator.pool
        (internal if inside else external).append(vp)
    return external, internal


def slash24_targets_by_region(isp) -> "dict[str, list[str]]":
    """One probe address per /24 of each announced region prefix (§5.1),
    keyed by region name in sorted order."""
    return {
        region_name: [
            str(subnet.network_address + 1)
            for prefix in isp.region_prefixes[region_name]
            for subnet in prefix.subnets(new_prefix=24)
        ]
        for region_name in sorted(isp.region_prefixes)
    }


def regional_co_addresses(isp, rdns, parser) -> "list[str]":
    """Snapshot addresses whose hostname *parser* reads as a regional
    CO of *isp*, in snapshot order (the §5.1 rDNS target sweep)."""
    return [
        address for address, hostname in rdns.snapshot_items()
        if parser.regional_co(hostname, isp.name) is not None
    ]


class BaseIsp:
    """Common state and helpers for ISP generators."""

    def __init__(
        self,
        name: str,
        asn: int,
        pool: str,
        network: Network,
        geography: "Geography | None" = None,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.asn = asn
        self.network = network
        self.geography = geography or Geography()
        self.rng = random.Random(f"{name}|{seed}")
        self.allocator = Ipv4Allocator(pool)
        self.regions: dict[str, Region] = {}
        self.backbone_pops: dict[str, BackbonePop] = {}
        self._router_seq = 0
        #: Prefixes this ISP announces per region (what a prober would
        #: learn from BGP and target one address per /24 of, §5.1).
        self.region_prefixes: dict[str, list] = {}

    # ------------------------------------------------------------------
    # Router / CO creation helpers
    # ------------------------------------------------------------------
    def new_router(
        self,
        role: str,
        region_name: str = "",
        policy: "ReplyPolicy | None" = None,
    ) -> Router:
        """Create, annotate, and register a router."""
        self._router_seq += 1
        uid = f"{self.name}-r{self._router_seq:05d}"
        router = Router(uid, policy=policy, asn=self.asn)
        router.role = role
        router.region = region_name
        self.network.add_router(router)
        return router

    def new_co(
        self,
        region: Region,
        kind: CoKind,
        city: City,
        clli: str,
        level: int = 0,
    ) -> CentralOffice:
        """Create a CO and register it in *region*."""
        uid = f"{self.name}:{clli}"
        co = CentralOffice(uid=uid, kind=kind, city=city, clli=clli, level=level)
        region.add_co(co)
        return co

    def link_cos(
        self,
        co_a: CentralOffice,
        router_a: Router,
        co_b: CentralOffice,
        router_b: Router,
        length_km: float,
        p2p_prefixlen: int = 30,
        metric: "float | None" = None,
        ring: object = None,
    ):
        """Allocate a point-to-point subnet and link two CO routers."""
        addr_a, addr_b, _subnet = self.allocator.allocate_p2p(p2p_prefixlen)
        return self.network.connect(
            router_a,
            router_b,
            addr_a,
            addr_b,
            prefixlen=p2p_prefixlen,
            length_km=length_km,
            metric=metric,
            ring=ring,
        )

    def announce(self, region_name: str, prefix) -> None:
        """Record a region prefix as externally visible (BGP-style)."""
        self.region_prefixes.setdefault(region_name, []).append(prefix)

    def region(self, name: str) -> Region:
        """Look up a built region by name."""
        try:
            return self.regions[name]
        except KeyError as exc:
            raise TopologyError(
                f"{self.name} has no region {name!r}; built: {sorted(self.regions)}"
            ) from exc

    # ------------------------------------------------------------------
    # Backbone
    # ------------------------------------------------------------------
    def add_backbone_pop(self, city: City, building: int = 1) -> BackbonePop:
        """Create a backbone PoP (BackboneCO) in *city* with one core router."""
        clli = self.geography.clli(city, building)
        uid = f"{self.name}:bb:{clli}"
        if uid in self.backbone_pops:
            return self.backbone_pops[uid]
        pop = BackbonePop(uid=uid, city=city, name=clli)
        router = self.new_router(role="backbone")
        pop.add_router(router)
        self.backbone_pops[uid] = pop
        self._name_backbone_router(router, pop)
        return pop

    def _name_backbone_router(self, router: Router, pop: BackbonePop) -> None:
        """Hook: subclasses attach backbone rDNS naming policies."""

    def backbone_rdns_for(self, pop: BackbonePop, router: Router, iface_index: int) -> Optional[str]:
        """Hook: subclasses return the rDNS name for a backbone interface."""
        return None

    def mesh_backbone(self, extra_chords: int = 2) -> None:
        """Interconnect backbone PoPs: a ring by longitude plus chords."""
        pops = sorted(self.backbone_pops.values(), key=lambda p: p.city.lon)
        if len(pops) < 2:
            return
        pairs = list(zip(pops, pops[1:] + pops[:1])) if len(pops) > 2 else [(pops[0], pops[1])]
        for i in range(extra_chords):
            if len(pops) > 3:
                pairs.append((pops[i % len(pops)], pops[(i + len(pops) // 2) % len(pops)]))
        seen = set()
        for pop_a, pop_b in pairs:
            key = tuple(sorted((pop_a.uid, pop_b.uid)))
            if key in seen or pop_a is pop_b:
                continue
            seen.add(key)
            dist = 1.4 * self.geography.distance_km(pop_a.city, pop_b.city)
            # The routing metric carries a penalty so that traffic for
            # *other* networks prefers the transit backbone — a crude
            # stand-in for valley-free BGP policy.
            link = self.link_cos(
                None, pop_a.routers[0], None, pop_b.routers[0], length_km=dist,
                metric=dist / 200.0 + 12.0,
            )
            self._maybe_name_backbone_link(link, pop_a, pop_b)

    def _maybe_name_backbone_link(self, link, pop_a: BackbonePop, pop_b: BackbonePop) -> None:
        """Attach rDNS to backbone link interfaces via the subclass hook."""
        for iface, pop in ((link.a, pop_a), (link.b, pop_b)):
            name = self.backbone_rdns_for(pop, iface.router, len(iface.router.interfaces))
            if name:
                self.network.rdns.set(iface.address, name)

    def nearest_backbone_pops(self, city: City, count: int = 2) -> "list[BackbonePop]":
        """The *count* backbone PoPs nearest to a city."""
        pops = sorted(
            self.backbone_pops.values(),
            key=lambda p: self.geography.distance_km(p.city, city),
        )
        if len(pops) < count:
            raise TopologyError(
                f"{self.name} has only {len(pops)} backbone PoPs; need {count}"
            )
        return pops[:count]
