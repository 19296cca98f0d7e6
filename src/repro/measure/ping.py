"""Echo probing: ping and the TTL-limited echo trick.

§6.3 of the paper measures latency to AT&T EdgeCO devices that refuse
direct pings from outside the ISP by sending an ICMP Echo whose TTL
expires at the penultimate hop — the device then emits a time-exceeded
message that reveals its RTT.  :meth:`Pinger.ttl_limited_ping`
implements that trick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.addresses import parse_ip
from repro.net.network import Network
from repro.net.router import Router, _stable_hash


@dataclass(frozen=True)
class PingResult:
    """Outcome of an echo campaign toward one address."""

    dst_address: str
    sent: int
    received: int
    min_rtt_ms: Optional[float]
    median_rtt_ms: Optional[float]

    @property
    def responded(self) -> bool:
        return self.received > 0


class Pinger:
    """Ping campaigns against a :class:`Network`."""

    def __init__(self, network: Network, jitter_ms: float = 0.3) -> None:
        self.network = network
        self.jitter_ms = jitter_ms

    def _rtts(self, base_ms: float, count: int, key: object) -> "list[float]":
        """*count* RTT samples: base plus non-negative queueing jitter."""
        samples = []
        for i in range(count):
            jitter = (_stable_hash("ping", key, i) % 1000) / 1000.0 * self.jitter_ms
            samples.append(round(2.0 * base_ms + 0.1 + jitter, 3))
        return samples

    def ping(self, src: Router, dst_address: str, count: int = 100,
             src_address: "str | None" = None) -> PingResult:
        """Direct echo probes to *dst_address*."""
        source = src_address or (
            src.interfaces[0].text if src.interfaces else "0.0.0.0"
        )
        dst = str(parse_ip(dst_address))
        dst_router, exists = self.network.route_target(dst)
        key = (source, dst, "echo")
        if (
            dst_router is None
            or not exists
            or not dst_router.policy.answers_echo(parse_ip(source), key)
        ):
            return PingResult(dst, count, 0, None, None)
        base = self.network.path_delay_ms(src, dst_router, flow_id=f"{source}|0")
        samples = sorted(self._rtts(base, count, key))
        return PingResult(
            dst, count, count, samples[0], samples[len(samples) // 2]
        )

    def ttl_limited_ping(
        self, src: Router, dst_address: str, ttl: int, count: int = 100,
        src_address: "str | None" = None,
    ) -> PingResult:
        """Echo probes with a fixed TTL that expires mid-path (§6.3).

        The reply comes from the router at the *ttl*-th visible hop, so
        the RTT measures the distance to that hop, not the destination.
        TTL-expiry replies ignore ``echo_internal_only`` filtering.
        """
        source = src_address or (
            src.interfaces[0].text if src.interfaces else "0.0.0.0"
        )
        dst = str(parse_ip(dst_address))
        dst_router, _exists = self.network.route_target(dst)
        if dst_router is None:
            return PingResult(dst, count, 0, None, None)
        path = self.network.forwarding_path(src, dst_router, flow_id=f"{source}|0")
        delays = dict(zip(path, self.network.path_delays_ms(path)))
        visible = self.network.mpls.visible_path(path, dst_router)
        hops_past_src = visible[1:]
        if ttl < 1 or ttl > len(hops_past_src):
            return PingResult(dst, count, 0, None, None)
        expiring_router = hops_past_src[ttl - 1]
        key = (source, dst, "ttl", ttl)
        if expiring_router is dst_router or not expiring_router.policy.responds_to(
            parse_ip(source), key
        ):
            return PingResult(dst, count, 0, None, None)
        base = delays[expiring_router]
        samples = sorted(self._rtts(base, count, key))
        return PingResult(
            dst, count, count, samples[0], samples[len(samples) // 2]
        )
