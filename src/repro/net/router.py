"""Router and interface models.

A :class:`Router` owns a set of :class:`Interface` objects (its alias
set, in measurement terms) and an ICMP :class:`ReplyPolicy` describing
how it answers probes.  The reply policy is where the paper's
measurement obstacles live: routers replying from the inbound interface
(which makes point-to-point subnet inference possible, Appendix B.1),
routers that ignore probes from outside their region (AT&T, §6.1), and
shared IP-ID counters (which make MIDAR-style alias resolution work).
"""

from __future__ import annotations

import hashlib
import ipaddress
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import TopologyError
from repro.net.addresses import IPAddress, parse_ip

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.link import Link


def _stable_hash(*parts: object) -> int:
    """Deterministic 64-bit hash of the string forms of *parts*."""
    text = "|".join(map(str, parts))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def _hash_prefix(text: str):
    """A blake2b state that has absorbed *text*, for :func:`_extend_hash`."""
    return hashlib.blake2b(text.encode(), digest_size=8)


def _extend_hash(prefix, suffix: str) -> int:
    """The :func:`_stable_hash` of *prefix*'s text followed by *suffix*.

    Hot loops that hash many keys sharing a head (every hop of one
    trace, every ECMP node of one flow) absorb the head once and pay
    only for the tail; the hash input bytes are unchanged.
    """
    state = prefix.copy()
    state.update(suffix.encode())
    return int.from_bytes(state.digest(), "big")


@dataclass
class Interface:
    """One router interface: an address on a subnet, optionally linked."""

    address: IPAddress
    prefixlen: int
    router: "Router" = field(repr=False, default=None)  # type: ignore[assignment]
    link: "Optional[Link]" = field(repr=False, default=None)
    name: str = ""

    def __post_init__(self) -> None:
        self.address = parse_ip(self.address)
        #: Canonical text form, the key every probe-path table uses.
        self.text = str(self.address)

    @property
    def subnet(self):
        """The interface's subnet as an ip_network object."""
        return ipaddress.ip_network(
            f"{self.address}/{self.prefixlen}", strict=False
        )

    def neighbor(self) -> "Optional[Interface]":
        """The interface at the other end of this interface's link."""
        if self.link is None:
            return None
        return self.link.other(self)


@dataclass
class ReplyPolicy:
    """How a router answers ICMP probes.

    ``reply_from``
        ``"inbound"`` — reply sourced from the interface the probe
        arrived on (the common case, and what makes the /30-peer
        heuristic of Appendix B.1 work); ``"probed"`` — reply sourced
        from the probed address; ``"loopback"`` — always the loopback.
    ``respond_prob``
        Probability (evaluated deterministically per probe) that the
        router answers at all.  Models silent hops ("*" lines).
    ``internal_only``
        When set, the router only answers probes whose source lies
        inside one of the listed prefixes.  Models AT&T's filtering of
        traceroute from the public internet / its own backbone (§6.1).
    ``initial_ttl``
        TTL the router puts on its ICMP replies (64 or 255 in the
        wild); reply-TTL fingerprinting appears in App. C's traces.
    """

    reply_from: str = "inbound"
    respond_prob: float = 1.0
    internal_only: "tuple[ipaddress.IPv4Network | ipaddress.IPv6Network, ...]" = ()
    #: Like ``internal_only`` but restricting only direct echo (ping)
    #: replies; TTL-expiry replies are unaffected.  Models AT&T last-mile
    #: devices that cannot be pinged externally yet reveal themselves to
    #: the TTL-limited echo trick of §6.3.
    echo_internal_only: "tuple[ipaddress.IPv4Network | ipaddress.IPv6Network, ...]" = ()
    initial_ttl: int = 64

    @staticmethod
    def _inside(source: IPAddress, prefixes) -> bool:
        src = parse_ip(source)
        return any(src.version == net.version and src in net for net in prefixes)

    def responds_to(self, probe_source: IPAddress, probe_id: object) -> bool:
        """Deterministically decide whether this probe gets a reply."""
        if self.internal_only and not self._inside(probe_source, self.internal_only):
            return False
        if self.respond_prob >= 1.0:
            return True
        if self.respond_prob <= 0.0:
            return False
        draw = _stable_hash("respond", probe_id) % 10_000
        return draw < self.respond_prob * 10_000

    def answers_echo(self, probe_source: IPAddress, probe_id: object) -> bool:
        """Whether a direct echo (ping) to this router gets a reply."""
        if not self.responds_to(probe_source, probe_id):
            return False
        if self.echo_internal_only and not self._inside(
            probe_source, self.echo_internal_only
        ):
            return False
        return True


class Router:
    """A router in the simulated internet.

    Ground-truth annotations (``co``, ``region``, ``role``) are attached
    by the topology generators; the measurement and inference layers
    never read them — only the scoring code in ``repro.infer.metrics``
    does.
    """

    __slots__ = (
        "uid",
        "name",
        "interfaces",
        "loopback",
        "policy",
        "co",
        "region",
        "role",
        "asn",
        "_ipid",
        "_ipid_step",
    )

    def __init__(
        self,
        uid: str,
        name: str = "",
        policy: "ReplyPolicy | None" = None,
        asn: int = 0,
        ipid_seed: "int | None" = None,
        ipid_step: int = 1,
    ) -> None:
        self.uid = uid
        self.name = name or uid
        self.interfaces: list[Interface] = []
        self.loopback: Optional[IPAddress] = None
        self.policy = policy or ReplyPolicy()
        self.co: Optional[object] = None
        self.region: Optional[object] = None
        self.role: str = ""
        self.asn = asn
        # Shared, monotonically increasing IP-ID counter across all
        # interfaces; this is the signal MIDAR's monotonic bounds test
        # detects.  Seeded per-router so distinct routers interleave.
        self._ipid = (
            ipid_seed if ipid_seed is not None else _stable_hash("ipid", uid) % 65536
        )
        self._ipid_step = max(1, ipid_step)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Router({self.uid!r}, ifaces={len(self.interfaces)})"

    def add_interface(self, address: "str | IPAddress", prefixlen: int, name: str = "") -> Interface:
        """Attach a new interface with the given address to this router."""
        iface = Interface(parse_ip(address), prefixlen, router=self, name=name)
        self.interfaces.append(iface)
        return iface

    def addresses(self) -> "list[IPAddress]":
        """All interface addresses (the router's true alias set)."""
        addrs = [iface.address for iface in self.interfaces]
        if self.loopback is not None:
            addrs.append(self.loopback)
        return addrs

    def owns(self, address: "str | IPAddress") -> bool:
        """True when *address* belongs to any interface (or loopback)."""
        addr = parse_ip(address)
        return any(addr == a for a in self.addresses())

    def interface_for(self, address: "str | IPAddress") -> Interface:
        """Return the interface bearing *address*."""
        addr = parse_ip(address)
        for iface in self.interfaces:
            if iface.address == addr:
                return iface
        raise TopologyError(f"{self.uid} has no interface {addr}")

    def probe_response(
        self,
        probe_source: "str | IPAddress",
        probe_id: object,
        echo: bool = False,
        faults=None,
    ) -> bool:
        """Whether this router answers a probe, with faults applied.

        The reply policy decides *refusal* (filtering, habitual
        silence); an attached fault injector additionally models ICMP
        rate-limiting windows, which look identical on the wire but are
        transient — a retry with a fresh probe id may land in an open
        window.
        """
        if faults is not None and faults.rate_limited(self.uid, probe_id):
            return False
        decide = self.policy.answers_echo if echo else self.policy.responds_to
        # Only a source-filtering policy reads the source, and it parses
        # it itself; a probe engine may pass it pre-parsed.
        return decide(probe_source, probe_id)

    def next_ipid(self) -> int:
        """Advance and return the router-wide IP-ID counter (16-bit)."""
        self._ipid = (self._ipid + self._ipid_step) % 65536
        return self._ipid

    def reply_address(self, inbound: "Interface | None", probed: "str | IPAddress") -> IPAddress:
        """Pick the source address for an ICMP reply, per policy."""
        mode = self.policy.reply_from
        if mode == "inbound" and inbound is not None:
            return inbound.address
        if mode == "loopback" and self.loopback is not None:
            return self.loopback
        probed_addr = parse_ip(probed)
        if self.owns(probed_addr):
            return probed_addr
        if inbound is not None:
            return inbound.address
        if self.interfaces:
            return self.interfaces[0].address
        raise TopologyError(f"router {self.uid} has no interfaces to reply from")

    def reply_text(self, inbound: "Interface | None", probed: "str | IPAddress") -> str:
        """:meth:`reply_address` as canonical text.

        The common inbound-interface reply reads the interface's
        precomputed text instead of formatting an address object.
        """
        if self.policy.reply_from == "inbound" and inbound is not None:
            return inbound.text
        return str(self.reply_address(inbound, probed))
