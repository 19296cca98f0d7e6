"""Address and prefix utilities.

The simulated networks use real IPv4/IPv6 semantics via the standard
library :mod:`ipaddress` module.  This module adds the pieces the paper's
methodology depends on:

* sequential allocators that carve prefixes out of an ISP's address
  space (per-region /16s, per-CO /24s, /30 and /31 point-to-point
  subnets — Appendix B.1);
* point-to-point "other end" computation (``p2p_peer``), used to refine
  IP→CO mappings (Fig 19 of the paper);
* an IPv6 bit-field codec, because mobile carriers encode region /
  EdgeCO / packet-gateway identifiers into address bits (§7.2, Fig 16).
"""

from __future__ import annotations

import functools
import ipaddress
import re
from typing import Iterator, Union

from repro.errors import AddressError

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]
IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]


def parse_ip(value: "str | int | IPAddress") -> IPAddress:
    """Parse a string, int, or address object into an address object."""
    if isinstance(value, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
        return value
    try:
        return ipaddress.ip_address(value)
    except ValueError as exc:
        raise AddressError(f"not an IP address: {value!r}") from exc


def same_subnet(a: "str | IPAddress", b: "str | IPAddress", prefixlen: int) -> bool:
    """Return True when two addresses fall in the same /prefixlen subnet."""
    addr_a, addr_b = parse_ip(a), parse_ip(b)
    if addr_a.version != addr_b.version:
        return False
    shift = addr_a.max_prefixlen - prefixlen
    return int(addr_a) >> shift == int(addr_b) >> shift


def p2p_peer(addr: "str | IPAddress", prefixlen: int = 30) -> IPAddress:
    """Return the other usable address of a point-to-point subnet.

    For a /31 the two addresses are the two host addresses; for a /30
    the usable addresses are the two between the network and broadcast
    addresses.  Appendix B.1 uses this to find the interface address on
    the far side of an inter-CO link.
    """
    address = parse_ip(addr)
    if address.version != 4:
        raise AddressError("p2p_peer is defined for IPv4 point-to-point subnets")
    value = int(address)
    if prefixlen == 31:
        return ipaddress.IPv4Address(value ^ 1)
    if prefixlen == 30:
        low2 = value & 0b11
        if low2 == 0b01:
            return ipaddress.IPv4Address(value + 1)
        if low2 == 0b10:
            return ipaddress.IPv4Address(value - 1)
        raise AddressError(
            f"{address} is the network or broadcast address of its /30"
        )
    raise AddressError(f"not a point-to-point prefix length: /{prefixlen}")


# ----------------------------------------------------------------------
# String forms for the probe and inference hot paths
# ----------------------------------------------------------------------
#: Canonical IPv4 dotted quad: four 0–255 octets, no leading zeros.
#: Strings matching this are already in ``str(parse_ip(s))`` form and
#: carry their octets in the groups, so the fast paths below can skip
#: ``ipaddress`` parsing entirely.  Anything else (IPv6, non-canonical
#: quads, garbage) falls through to the slow path.
_OCTET = r"(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9][0-9]|[0-9])"
_DOTTED_QUAD = re.compile(rf"^{_OCTET}\.{_OCTET}\.{_OCTET}\.{_OCTET}$")


@functools.lru_cache(maxsize=1 << 16)
def normalize_address(value) -> str:
    """``str(parse_ip(value))``, memoized in a bounded process-wide LRU.

    Address normalization is a pure function of the input, yet it was
    the single hottest call in the pipeline (one ``ipaddress`` parse
    per hop per trace).  The bound (65,536 entries; a charter campaign
    has about 3,500 distinct addresses) keeps a long-running service's
    memo from growing with every job's fresh address space.
    """
    if isinstance(value, str) and _DOTTED_QUAD.match(value):
        return value  # already canonical
    return str(parse_ip(value))


def p2p_peer_str(address: str, prefixlen: int = 30) -> "str | None":
    """The point-to-point peer of *address* as a string, or None.

    Wraps :func:`p2p_peer`, converting the ``AddressError`` raised for
    network/broadcast addresses into None — every caller in the
    inference path catches-and-skips.
    """
    match = _DOTTED_QUAD.match(address) if prefixlen in (30, 31) else None
    if match is None:
        return _p2p_peer_slow(address, prefixlen)
    last = int(match.group(4))
    if prefixlen == 31:
        peer_last: "int | None" = last ^ 1
    else:
        low2 = last & 0b11
        # low2 0/3 are the /30's network and broadcast addresses — no
        # peer, matching the AddressError path.
        peer_last = (
            last + 1 if low2 == 0b01
            else last - 1 if low2 == 0b10
            else None
        )
    if peer_last is None:
        return None
    return f"{match.group(1)}.{match.group(2)}.{match.group(3)}.{peer_last}"


def _p2p_peer_slow(address: str, prefixlen: int) -> "str | None":
    try:
        return str(p2p_peer(address, prefixlen))
    except AddressError:
        return None


def usable_p2p_addresses(network: "str | IPNetwork") -> "tuple[IPAddress, IPAddress]":
    """Return the two usable addresses of a /30 or /31 subnet."""
    net = ipaddress.ip_network(network) if isinstance(network, str) else network
    if net.prefixlen == 31:
        base = int(net.network_address)
        return (ipaddress.IPv4Address(base), ipaddress.IPv4Address(base + 1))
    if net.prefixlen == 30:
        base = int(net.network_address)
        return (ipaddress.IPv4Address(base + 1), ipaddress.IPv4Address(base + 2))
    raise AddressError(f"not a point-to-point subnet: {net}")


class Ipv4Allocator:
    """Sequential carver of sub-prefixes and host addresses from a pool.

    The allocator mimics how an ISP numbers its plant: contiguous /24s
    per CO, and /30 or /31 point-to-point subnets for inter-CO links,
    all drawn from the ISP's aggregate announcement.
    """

    def __init__(self, pool: "str | ipaddress.IPv4Network") -> None:
        self.pool = (
            ipaddress.ip_network(pool) if isinstance(pool, str) else pool
        )
        if self.pool.version != 4:
            raise AddressError("Ipv4Allocator requires an IPv4 pool")
        self._cursor = int(self.pool.network_address)
        self._end = int(self.pool.broadcast_address) + 1

    @property
    def remaining(self) -> int:
        """Number of unallocated addresses left in the pool."""
        return self._end - self._cursor

    def allocate_subnet(self, prefixlen: int) -> ipaddress.IPv4Network:
        """Allocate the next aligned subnet of the given prefix length."""
        if prefixlen < self.pool.prefixlen or prefixlen > 32:
            raise AddressError(
                f"cannot allocate /{prefixlen} from {self.pool}"
            )
        size = 1 << (32 - prefixlen)
        start = (self._cursor + size - 1) & ~(size - 1)  # align up
        if start + size > self._end:
            raise AddressError(f"pool {self.pool} exhausted")
        self._cursor = start + size
        return ipaddress.IPv4Network((start, prefixlen))

    def allocate_host(self) -> ipaddress.IPv4Address:
        """Allocate the next single host address."""
        if self._cursor >= self._end:
            raise AddressError(f"pool {self.pool} exhausted")
        addr = ipaddress.IPv4Address(self._cursor)
        self._cursor += 1
        return addr

    def allocate_p2p(self, prefixlen: int = 30) -> "tuple[ipaddress.IPv4Address, ipaddress.IPv4Address, ipaddress.IPv4Network]":
        """Allocate a point-to-point subnet; return (side_a, side_b, subnet)."""
        if prefixlen not in (30, 31):
            raise AddressError(f"point-to-point prefixes are /30 or /31, not /{prefixlen}")
        subnet = self.allocate_subnet(prefixlen)
        side_a, side_b = usable_p2p_addresses(subnet)
        return side_a, side_b, subnet


class Ipv6FieldCodec:
    """Pack and unpack named bit fields of an IPv6 address.

    Mobile carriers encode topological meaning into address bits
    (§7.2): e.g. AT&T user addresses carry the region in bits 32–39 and
    router addresses carry the packet gateway in bits 48–51.  Fields are
    specified as ``{"name": (start_bit, end_bit_exclusive)}`` counting
    from the most significant bit (bit 0), matching the paper's
    "Addr. Bit Fields" notation in Fig 16.
    """

    def __init__(self, fields: "dict[str, tuple[int, int]]") -> None:
        for name, (start, end) in fields.items():
            if not 0 <= start < end <= 128:
                raise AddressError(f"field {name!r} has invalid range ({start}, {end})")
        self.fields = dict(fields)

    def width(self, name: str) -> int:
        """Bit width of a field."""
        start, end = self.fields[name]
        return end - start

    def encode(self, base: "str | ipaddress.IPv6Address", **values: int) -> ipaddress.IPv6Address:
        """Return *base* with each named field overwritten by its value."""
        addr = int(parse_ip(str(base)) if isinstance(base, str) else base)
        for name, value in values.items():
            if name not in self.fields:
                raise AddressError(f"unknown IPv6 field {name!r}")
            start, end = self.fields[name]
            nbits = end - start
            if value < 0 or value >= (1 << nbits):
                raise AddressError(
                    f"value {value} does not fit in {nbits}-bit field {name!r}"
                )
            shift = 128 - end
            mask = ((1 << nbits) - 1) << shift
            addr = (addr & ~mask) | (value << shift)
        return ipaddress.IPv6Address(addr)

    def decode(self, address: "str | ipaddress.IPv6Address") -> "dict[str, int]":
        """Extract every named field's value from an address."""
        addr = int(parse_ip(address))
        out = {}
        for name, (start, end) in self.fields.items():
            shift = 128 - end
            nbits = end - start
            out[name] = (addr >> shift) & ((1 << nbits) - 1)
        return out

    @staticmethod
    def extract_bits(address: "str | ipaddress.IPv6Address", start: int, end: int) -> int:
        """Extract bits [start, end) of any IPv6 address (MSB = bit 0)."""
        if not 0 <= start < end <= 128:
            raise AddressError(f"invalid bit range ({start}, {end})")
        addr = int(parse_ip(address))
        return (addr >> (128 - end)) & ((1 << (end - start)) - 1)


def hosts_in(network: "str | IPNetwork", limit: "int | None" = None) -> Iterator[IPAddress]:
    """Yield host addresses of a network, optionally capped at *limit*."""
    net = ipaddress.ip_network(network) if isinstance(network, str) else network
    count = 0
    for host in net.hosts():
        if limit is not None and count >= limit:
            return
        yield host
        count += 1
