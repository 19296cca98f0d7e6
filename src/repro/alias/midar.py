"""MIDAR-style alias resolution: the Monotonic Bounds Test.

MIDAR (Keys et al. 2013) exploits routers that generate IP-ID values
from one shared, monotonically increasing counter across all their
interfaces.  Probing two addresses in an interleaved schedule and
checking that the merged IP-ID time series is still monotonic (modulo
16-bit wraparound) confirms — with high probability — that the two
addresses share a counter, i.e. a router.

The full MIDAR system shards internet-scale candidate sets by estimated
counter velocity; in the simulation every router advances its counter
only when probed, so velocity-based sharding would be degenerate.  The
resolver in :mod:`repro.alias.resolve` instead feeds candidate pairs
from structural hints (shared subnets, traceroute adjacency, Mercator
seeds), which is the role MIDAR's elimination stage plays.
"""

from __future__ import annotations

from repro.net.addresses import parse_ip
from repro.net.network import Network
from repro.net.router import Router

_WRAP = 65536


class MidarProber:
    """Interleaved IP-ID sampling and the Monotonic Bounds Test."""

    def __init__(self, network: Network, samples_per_round: int = 4,
                 attempts: int = 1) -> None:
        self.network = network
        self.samples_per_round = samples_per_round
        self.attempts = attempts
        self.probes_sent = 0
        self.probes_retried = 0

    def sample(self, src: Router, addresses,
               src_address: "str | None" = None) -> "dict[str, list[tuple[int, int]]]":
        """Collect interleaved (time, ipid) samples for each address.

        The schedule probes all addresses round-robin so that samples of
        different addresses interleave in time, as MIDAR requires.
        Unresponsive addresses get empty sample lists.
        """
        source = src_address or (
            src.interfaces[0].text if src.interfaces else "0.0.0.0"
        )
        series: "dict[str, list[tuple[int, int]]]" = {
            str(parse_ip(a)): [] for a in addresses
        }
        faults = self.network.faults
        clock = 0
        for round_index in range(self.samples_per_round):
            for address in series:
                clock += 1
                owner = self.network.owner_router(address)
                if owner is None:
                    self.probes_sent += 1
                    continue
                base_key = (source, address, "midar", round_index)
                for attempt in range(self.attempts):
                    key = base_key if attempt == 0 else (*base_key, f"a{attempt}")
                    self.probes_sent += 1
                    if attempt:
                        self.probes_retried += 1
                    if faults is not None and faults.probe_lost(key):
                        continue
                    if not owner.probe_response(source, key, faults=faults):
                        continue
                    series[address].append((clock, owner.next_ipid()))
                    break
        return series

    @staticmethod
    def monotonic_bounds_test(
        series_a: "list[tuple[int, int]]", series_b: "list[tuple[int, int]]"
    ) -> bool:
        """True when the merged (time, ipid) series is mod-2^16 monotonic.

        Requires at least two samples on each side; the merged sequence
        must increase at every step, allowing a single small wraparound
        step (< half the counter space) at a time.
        """
        if len(series_a) < 2 or len(series_b) < 2:
            return False
        merged = sorted(series_a + series_b)
        total_advance = 0
        for (_, prev), (_, cur) in zip(merged, merged[1:]):
            step = (cur - prev) % _WRAP
            if step == 0 or step > _WRAP // 2:
                return False
            total_advance += step
        # A genuine shared counter advances roughly once per probe; an
        # accidental monotonic interleaving of two independent counters
        # would show implausibly large total advance.
        return total_advance < _WRAP // 2

    def test_pair(self, src: Router, addr_a: str, addr_b: str,
                  src_address: "str | None" = None) -> bool:
        """Sample two addresses together and run the MBT."""
        series = self.sample(src, [addr_a, addr_b], src_address=src_address)
        return self.monotonic_bounds_test(
            series[str(parse_ip(addr_a))], series[str(parse_ip(addr_b))]
        )
