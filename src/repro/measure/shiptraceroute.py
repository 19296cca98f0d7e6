"""ShipTraceroute: parcel-based mobile measurement (§7.1).

Three phones (one per carrier) ride ground shipments between U.S.
metros.  Once an hour each phone exits airplane mode (forcing a fresh
packet-core registration — this is what cycles the PGW bits), logs its
serving cellid, runs a round of traceroutes, and measures latency to
the San Diego measurement server.  Signal inside the truck is not
always sufficient; rural stretches produce failed rounds at roughly the
paper's observed rates (82 % AT&T / 84 % Verizon / 75 % T-Mobile).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import MeasurementError
from repro.measure.cellular import CellDatabase, signal_available
from repro.measure.runner import CampaignHealth
from repro.measure.traceroute import TraceResult
from repro.topology.geography import City, Geography, great_circle_km
from repro.topology.mobile import MobileAttachment, MobileCarrier

#: Average truck progress, km per hour of transit.
TRUCK_KM_PER_H = 75.0
#: Hours parked at a sorting hub mid-shipment.
HUB_DWELL_H = 12

#: Per-carrier rural coverage multiplier (T-Mobile's sparser rural
#: footprint is what drives its lower round success rate).
CARRIER_COVERAGE_KM = {"att-mobile": 310.0, "verizon": 350.0, "tmobile": 250.0}

#: The 12 shipment legs of the national campaign (Fig 15).
DEFAULT_ITINERARY = [
    ("San Diego", "CA", "Phoenix", "AZ"),
    ("Phoenix", "AZ", "Seattle", "WA"),
    ("Seattle", "WA", "Fargo", "ND"),
    ("Fargo", "ND", "Boston", "MA"),
    ("Boston", "MA", "Washington", "DC"),
    ("Washington", "DC", "Charleston", "SC"),
    ("Charleston", "SC", "Miami", "FL"),
    ("Miami", "FL", "Little Rock", "AR"),
    ("Little Rock", "AR", "Albuquerque", "NM"),
    ("Albuquerque", "NM", "Wichita", "KS"),
    ("Wichita", "KS", "Minneapolis", "MN"),
    ("Minneapolis", "MN", "San Diego", "CA"),
]


@dataclass
class ShipRound:
    """One hourly measurement attempt during a shipment."""

    hour: int
    lat: float
    lon: float
    state: str
    success: bool
    cellid: Optional[int] = None
    attachment: Optional[MobileAttachment] = None
    trace: Optional[TraceResult] = None
    min_rtt_to_server_ms: Optional[float] = None


@dataclass
class ShipCampaignResult:
    """Everything one phone collected across the itinerary."""

    carrier_name: str
    rounds: "list[ShipRound]" = field(default_factory=list)
    #: Cost/loss accounting for this phone's campaign.
    health: "CampaignHealth | None" = None

    @property
    def attempted(self) -> int:
        return len(self.rounds)

    @property
    def succeeded(self) -> int:
        return sum(1 for r in self.rounds if r.success)

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.attempted if self.attempted else 0.0

    def states_covered(self) -> "set[str]":
        return {r.state for r in self.rounds}

    def successful_rounds(self) -> "list[ShipRound]":
        return [r for r in self.rounds if r.success]


class ShipTracerouteCampaign:
    """Drives the phones along the itinerary and collects rounds."""

    def __init__(
        self,
        carriers: "dict[str, MobileCarrier]",
        geography: "Geography | None" = None,
        server_city: "City | None" = None,
        seed: int = 0,
        attempts: int = 1,
        faults=None,
    ) -> None:
        if not carriers:
            raise MeasurementError("campaign needs at least one carrier phone")
        self.carriers = carriers
        #: Per-round retry budget: a phone that wakes to no signal
        #: waits a minute and tries again (up to ``attempts`` times).
        self.attempts = attempts
        #: Optional :class:`~repro.faults.FaultPlan` whose ``vp_flap``
        #: knocks out extra rounds (the modem crashed on wake).
        self.faults = faults
        self.geography = geography or Geography()
        self.server_city = server_city or self.geography.city("San Diego", "CA")
        self.celldb = CellDatabase()
        self.seed = seed
        # App. D target selection: one destination per neighbour AS,
        # reduced to a single destination per carrier after the §7.1.1
        # pilot showed identical in-carrier paths.
        from repro.topology.asrel import CARRIER_ASNS, AsRelationshipDataset

        dataset = AsRelationshipDataset(seed=seed)
        self.targets = {
            name: dataset.targets_for(name)[0][0]
            for name in carriers
            if name in CARRIER_ASNS
        }

    # -- route geometry ------------------------------------------------------
    def leg_waypoints(self, origin: "tuple[str, str]", dest: "tuple[str, str]") -> "list[City]":
        """Truck waypoints for one leg: the largest metro of each state
        along the land route."""
        origin_city = self.geography.city(*origin)
        dest_city = self.geography.city(*dest)
        states = self.geography.shipping_route(origin_city.state, dest_city.state)
        waypoints = [origin_city]
        for state in states[1:-1]:
            waypoints.append(self.geography.cities_in(state)[0])
        waypoints.append(dest_city)
        return waypoints

    def hourly_positions(self, waypoints: "list[City]") -> "list[tuple[float, float, str]]":
        """(lat, lon, state) at each transit hour, with a hub dwell."""
        positions: "list[tuple[float, float, str]]" = []
        for a, b in zip(waypoints, waypoints[1:]):
            dist = great_circle_km(a.lat, a.lon, b.lat, b.lon)
            hours = max(1, round(dist / TRUCK_KM_PER_H))
            for step in range(hours):
                frac = step / hours
                lat = a.lat + (b.lat - a.lat) * frac
                lon = a.lon + (b.lon - a.lon) * frac
                state = self.geography.nearest(lat, lon, 1)[0].state
                positions.append((lat, lon, state))
        if positions:
            mid = len(positions) // 2
            positions[mid:mid] = [positions[mid]] * HUB_DWELL_H
        final = waypoints[-1]
        positions.append((final.lat, final.lon, final.state))
        return positions

    def _round_usable(self, carrier: MobileCarrier, rng: random.Random,
                      hour: int, lat: float, lon: float, coverage_km: float,
                      health: CampaignHealth) -> bool:
        """Whether the hour's measurement round gets signal.

        Attempt 0 reproduces the historical draw exactly (including the
        short-circuit that skips the fade draw outside coverage — the
        shared ``rng`` stream must not shift).  Retries draw from
        per-round keyed streams so the outcome is independent of how
        other rounds went, and injected modem flaps
        (``FaultPlan.vp_flap``) can be retried away the same way.
        """
        in_coverage = signal_available(
            lat, lon, self.geography, max_km=coverage_km
        )
        for attempt in range(self.attempts):
            if attempt == 0:
                faded = in_coverage and rng.random() <= 0.06
            else:
                health.vp_flap_retries += 1
                faded = in_coverage and random.Random(
                    f"ship-retry|{self.seed}|{carrier.name}|{hour}|{attempt}"
                ).random() <= 0.06
            flapped = self.faults is not None and self.faults.vp_flapped(
                carrier.name, ("ship", hour, attempt)
            )
            if in_coverage and not faded and not flapped:
                return True
            if not in_coverage:
                # Parked in a dead zone: waiting a minute changes nothing.
                return False
        return False

    # -- the campaign ---------------------------------------------------
    def run_phone(self, carrier: MobileCarrier,
                  itinerary: "list[tuple[str, str, str, str]] | None" = None,
                  rtt_samples: int = 4) -> ShipCampaignResult:
        """Ship one phone along the itinerary."""
        legs = itinerary or DEFAULT_ITINERARY
        rng = random.Random(f"ship|{carrier.name}|{self.seed}")
        health = CampaignHealth()
        result = ShipCampaignResult(carrier.name, health=health)
        coverage_km = CARRIER_COVERAGE_KM.get(carrier.name, 140.0)
        hour = 0
        for origin_city, origin_state, dest_city, dest_state in legs:
            waypoints = self.leg_waypoints(
                (origin_city, origin_state), (dest_city, dest_state)
            )
            for lat, lon, state in self.hourly_positions(waypoints):
                hour += 1
                # In-truck fading: a bit of randomness on top of the
                # coverage geometry.
                usable = self._round_usable(
                    carrier, rng, hour, lat, lon, coverage_km, health
                )
                if not usable:
                    result.rounds.append(
                        ShipRound(hour, lat, lon, state, success=False)
                    )
                    continue
                health.traces_run += 1
                cell = self.celldb.serving_cell(lat, lon)
                # Exit airplane mode -> fresh attachment (PGW may cycle).
                attachment = carrier.attach(cell.lat, cell.lon)
                destination = self.targets.get(carrier.name, "203.0.113.1")
                trace = carrier.traceroute(
                    attachment, destination, dst_city=self.server_city
                )
                rtts = [
                    carrier.path_rtt_ms(attachment, self.server_city)
                    + rng.uniform(0.0, 12.0)
                    for _ in range(rtt_samples)
                ]
                result.rounds.append(
                    ShipRound(
                        hour, lat, lon, state, success=True,
                        cellid=cell.cellid, attachment=attachment,
                        trace=trace, min_rtt_to_server_ms=round(min(rtts), 3),
                    )
                )
        return result

    def run(self, itinerary: "list[tuple[str, str, str, str]] | None" = None) -> "dict[str, ShipCampaignResult]":
        """Ship all three phones; return per-carrier results."""
        return {
            name: self.run_phone(carrier, itinerary)
            for name, carrier in sorted(self.carriers.items())
        }
