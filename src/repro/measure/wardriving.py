"""McTraceroute: public-WiFi hotspot vantage points (§6.1).

Fast-food chains buy last-mile service for their free WiFi at many
geographically scattered locations, so their hotspots are cheap
internal vantage points behind many different EdgeCOs.  The campaign
driver places restaurant sites around a region, determines which ones
the target ISP serves, attaches a measurement host behind the serving
EdgeCO's last-mile device, and runs traceroute sweeps from each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import MeasurementError
from repro.measure.runner import CampaignHealth, CampaignRunner
from repro.measure.traceroute import TraceResult, Tracerouter
from repro.measure.vantage import VantagePoint, attach_host
from repro.net.network import Network
from repro.net.router import Router
from repro.topology.co import CentralOffice, Region
from repro.topology.geography import Geography, great_circle_km


@dataclass
class Hotspot:
    """One restaurant's WiFi: its location and (maybe) a usable VP."""

    name: str
    lat: float
    lon: float
    #: ISP serving the restaurant's last-mile link.
    isp_name: str
    vp: Optional[VantagePoint] = None

    @property
    def on_target_isp(self) -> bool:
        return self.vp is not None


class McTracerouteCampaign:
    """Wardriving a region's restaurant WiFi for internal VPs."""

    def __init__(
        self,
        network: Network,
        telco,
        geography: "Geography | None" = None,
        seed: int = 0,
        target_share: float = 0.4,
    ) -> None:
        self.network = network
        self.telco = telco
        self.geography = geography or telco.geography
        self.rng = random.Random(f"mctraceroute|{seed}")
        #: Fraction of restaurants whose WiFi rides the target ISP
        #: (23 of 58 San Diego McDonald's used AT&T, §6.1).
        self.target_share = target_share
        self.hotspots: "list[Hotspot]" = []
        #: Health report of the most recent :meth:`sweep`.
        self.last_health: "CampaignHealth | None" = None

    # ------------------------------------------------------------------
    def _dslam_for_co(self, co: CentralOffice) -> "Optional[Router]":
        for router in self.network.routers.values():
            if router.co is co and router.role == "dslam":
                return router
        return None

    def place_hotspots(self, region: Region, count: int = 58) -> "list[Hotspot]":
        """Scatter *count* restaurant sites across the region's metros.

        Restaurants cluster where people are: sites are scattered
        around EdgeCO neighbourhoods, and each site's WiFi is served by
        the ISP with probability ``target_share`` (else a competitor,
        unusable for this campaign).
        """
        edge_cos = region.edge_cos
        if not edge_cos:
            raise MeasurementError(f"region {region.name} has no EdgeCOs")
        self.hotspots = []
        for index in range(count):
            anchor = edge_cos[index % len(edge_cos)]
            lat, lon = self.geography.scatter(anchor.city, self.rng, radius_km=6.0)
            on_target = self.rng.random() < self.target_share
            hotspot = Hotspot(
                name=f"mcd-{region.name}-{index:02d}",
                lat=lat,
                lon=lon,
                isp_name=self.telco.name if on_target else "competitor",
            )
            if on_target:
                serving_co = min(
                    edge_cos,
                    key=lambda co: great_circle_km(lat, lon, co.lat, co.lon),
                )
                dslam = self._dslam_for_co(serving_co)
                if dslam is not None:
                    subnet = self.telco.vp_subnet_for(dslam)
                    host, addr = attach_host(
                        self.network, dslam, hotspot.name, subnet,
                        extra_delay_ms=3.0,
                    )
                    hotspot.vp = VantagePoint(
                        hotspot.name, "wifi", host, addr, serving_co.city
                    )
            self.hotspots.append(hotspot)
        return self.hotspots

    def usable_vps(self) -> "list[VantagePoint]":
        """The hotspots that turned out to be on the target ISP."""
        return [h.vp for h in self.hotspots if h.vp is not None]

    def sweep(
        self,
        targets: "list[str]",
        attempts: int = 1,
        checkpoint_path=None,
        resume: bool = False,
        min_vps: int = 1,
    ) -> "list[TraceResult]":
        """Traceroute from every usable hotspot to every target.

        Hotspot fleets are the flakiest VPs in the paper (the venue can
        kick the prober at any time), so the sweep runs through
        :class:`CampaignRunner`: per-hop retries, failover to a
        surviving hotspot, and checkpoint/resume.  The health report of
        the latest sweep is kept on ``self.last_health``.
        """
        tracer = Tracerouter(self.network, attempts=attempts)
        vps = self.usable_vps()
        runner = CampaignRunner.open(
            tracer, vps, checkpoint_path, resume=resume, min_vps=min_vps
        )
        self.last_health = runner.health
        return runner.run(
            [(vp, target) for vp in vps for target in targets],
            stage="mctraceroute",
        )

    # ------------------------------------------------------------------
    @staticmethod
    def distinct_ip_paths(traces: "list[TraceResult]", skip_hops: int = 1) -> "set[tuple[str, ...]]":
        """Distinct IP paths, ignoring the first *skip_hops* hops.

        §6.1 compares path counts "starting with the second hop" so the
        per-VP access links don't inflate the numbers.
        """
        paths = set()
        for trace in traces:
            addresses = tuple(trace.responsive_addresses()[skip_hops:])
            if addresses:
                paths.add(addresses)
        return paths
