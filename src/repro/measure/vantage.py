"""Vantage points.

A vantage point is a host attached somewhere on the simulated internet
from which traceroute/ping campaigns run.  The paper used 47 VPs in
access, cloud, and transit networks for the cable study (§5.1), CAIDA
Ark and RIPE Atlas probes inside AT&T regions (§6.1), public-WiFi
hotspots ("McTraceroute"), and cloud VMs for latency work (§5.5, §6.3).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Optional

from repro.errors import MeasurementError
from repro.net.network import Network
from repro.net.router import ReplyPolicy, Router
from repro.topology.geography import City


@dataclass
class VantagePoint:
    """One measurement host: a router node plus its source address."""

    name: str
    kind: str  # "ark" | "atlas" | "cloud" | "wifi" | "transit" | "access"
    host: Router
    src_address: str
    city: Optional[City] = None

    def __post_init__(self) -> None:
        valid = {"ark", "atlas", "cloud", "wifi", "transit", "access", "server"}
        if self.kind not in valid:
            raise MeasurementError(f"unknown VP kind {self.kind!r}")


class VantagePointSet:
    """A named collection of vantage points."""

    def __init__(self) -> None:
        self._vps: dict[str, VantagePoint] = {}

    def __len__(self) -> int:
        return len(self._vps)

    def __iter__(self):
        return iter(sorted(self._vps.values(), key=lambda vp: vp.name))

    def add(self, vp: VantagePoint) -> VantagePoint:
        if vp.name in self._vps:
            raise MeasurementError(f"duplicate VP name {vp.name!r}")
        self._vps[vp.name] = vp
        return vp

    def get(self, name: str) -> VantagePoint:
        try:
            return self._vps[name]
        except KeyError as exc:
            raise MeasurementError(f"no VP named {name!r}") from exc

    def of_kind(self, kind: str) -> "list[VantagePoint]":
        return [vp for vp in self if vp.kind == kind]


class FleetView:
    """A campaign's live view of its fleet: who is alive, who replaces whom.

    The paper's fleets shrank mid-campaign (hotspots kicked the prober,
    phones lost signal); the runner marks such VPs dead here and picks
    deterministic stand-ins so a resumed campaign makes identical
    choices.
    """

    def __init__(self, vps) -> None:
        self._vps: "list[VantagePoint]" = list(vps)
        self._by_name = {vp.name: vp for vp in self._vps}
        if len(self._by_name) != len(self._vps):
            raise MeasurementError("fleet contains duplicate VP names")
        self._dead: "set[str]" = set()

    def __len__(self) -> int:
        return len(self._vps)

    @property
    def names(self) -> "list[str]":
        return [vp.name for vp in self._vps]

    @property
    def dead(self) -> "set[str]":
        return set(self._dead)

    def get(self, name: str) -> VantagePoint:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise MeasurementError(f"no VP named {name!r} in fleet") from exc

    def is_alive(self, name: str) -> bool:
        return name in self._by_name and name not in self._dead

    def mark_dead(self, name: str) -> None:
        if name in self._by_name:
            self._dead.add(name)

    def alive_count(self) -> int:
        """How many VPs survive, in O(1) (``_dead`` only holds fleet names)."""
        return len(self._vps) - len(self._dead)

    def alive(self) -> "list[VantagePoint]":
        """Surviving VPs, in fleet order."""
        return [vp for vp in self._vps if vp.name not in self._dead]

    def first_alive(self) -> "Optional[VantagePoint]":
        survivors = self.alive()
        return survivors[0] if survivors else None

    def stand_in(self, key: object) -> "Optional[VantagePoint]":
        """A deterministic surviving VP for the failed job *key*.

        Hashing the job identity (not a rotating counter) keeps the
        choice independent of execution order, so checkpoint resume
        reassigns identically.
        """
        from repro.net.router import _stable_hash

        survivors = self.alive()
        if not survivors:
            return None
        return survivors[_stable_hash("failover", key) % len(survivors)]


def attach_host(
    network: Network,
    parent: Router,
    name: str,
    host_subnet: "str | ipaddress.IPv4Network",
    length_km: float = 2.0,
    extra_delay_ms: float = 0.0,
) -> "tuple[Router, str]":
    """Attach a measurement host behind *parent* via a /30 subnet.

    Returns the host router and its source address.  The host responds
    to probes (it is a real machine) and gets a deterministic uid.
    """
    net = (
        ipaddress.ip_network(host_subnet)
        if isinstance(host_subnet, str)
        else host_subnet
    )
    if net.prefixlen != 30:
        raise MeasurementError("attach_host expects a /30 host subnet")
    base = int(net.network_address)
    parent_addr = ipaddress.IPv4Address(base + 1)
    host_addr = ipaddress.IPv4Address(base + 2)
    network.hosts_attached += 1
    host = Router(f"host-{name}-{network.hosts_attached:04d}", policy=ReplyPolicy())
    network.add_router(host)
    network.connect(
        parent, host, parent_addr, host_addr,
        prefixlen=30, length_km=length_km, extra_delay_ms=extra_delay_ms,
    )
    return host, str(host_addr)
