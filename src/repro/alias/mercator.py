"""Mercator-style alias resolution.

Mercator sends a probe to one interface address of a router and checks
the source address of the reply: many routers reply from the interface
facing the prober rather than the probed address, so a mismatch pairs
the two addresses as aliases of one router.
"""

from __future__ import annotations

from repro.net.addresses import parse_ip
from repro.net.network import Network
from repro.net.router import Router


class MercatorProber:
    """Common-source-address alias probing against a :class:`Network`.

    ``attempts`` retries unanswered probes with fresh probe identities,
    recovering targets whose first probe was lost or rate-limited under
    fault injection; the first attempt keeps the historical identity.
    """

    def __init__(self, network: Network, attempts: int = 1) -> None:
        self.network = network
        self.attempts = attempts
        self.probes_sent = 0
        self.probes_retried = 0

    def probe(self, src: Router, target_address: str,
              src_address: "str | None" = None) -> "tuple[str, str] | None":
        """Probe one address; return an alias pair if revealed.

        Returns ``(target, reply_source)`` when the reply came from a
        different address than the one probed, ``None`` otherwise
        (including when the target does not answer).
        """
        source = src_address or (
            src.interfaces[0].text if src.interfaces else "0.0.0.0"
        )
        target = str(parse_ip(target_address))
        owner = self.network.owner_router(target)
        if owner is None:
            self.probes_sent += 1
            return None
        faults = self.network.faults
        base_key = (source, target, "mercator")
        answered = False
        for attempt in range(self.attempts):
            key = base_key if attempt == 0 else (*base_key, f"a{attempt}")
            self.probes_sent += 1
            if attempt:
                self.probes_retried += 1
            if faults is not None and faults.probe_lost(key):
                continue
            if owner.probe_response(source, key, faults=faults):
                answered = True
                break
        if not answered:
            return None
        from repro.errors import RoutingError

        try:
            path = self.network.forwarding_path(src, owner, flow_id=0)
        except RoutingError:
            return None
        inbound = self.network.inbound_interfaces(path)
        reply_source = owner.reply_text(inbound[-1], target)
        if reply_source != target:
            return (target, reply_source)
        return None

    def probe_all(self, src: Router, addresses,
                  src_address: "str | None" = None) -> "list[tuple[str, str]]":
        """Probe many addresses; return all alias pairs discovered."""
        pairs = []
        for address in addresses:
            pair = self.probe(src, address, src_address=src_address)
            if pair is not None:
                pairs.append(pair)
        return pairs
