"""Shared, fault-injection-safe memoization for the inference hot path.

Profiling the cable pipeline shows three dominant costs, all pure
recomputation: address-string normalization (``str(parse_ip(s))``),
point-to-point peer derivation, and PTR-lookup + hostname-regex parsing
repeated once per IP *pair* instead of once per IP.  Two kinds of memo
live here:

* **Module-level memos** (:func:`normalize_address`,
  :func:`p2p_peer_str`) for computations that are pure functions of
  their string argument — safe to share process-wide and never
  invalidated.
* **:class:`InferenceCache`** for facts that are pure only *per epoch*
  of an :class:`~repro.net.dns.RdnsStore`: a combined PTR lookup
  changes when the store mutates or when a different fault injector is
  attached (stale-rDNS injection rewrites lookups per address).  The
  cache watches both and drops its lookup-derived entries whenever
  either changes, so fault-injection campaigns see exactly the answers
  the uncached path would produce.

What is deliberately **not** cached: ``RdnsStore.dig`` — under fault
injection its transient timeouts are keyed on the caller's event key,
so one address can answer differently for different events.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass

from repro.errors import AddressError
from repro.net.addresses import p2p_peer, parse_ip
from repro.obs.metrics import MetricsRegistry

_MISS = object()

_normalize_memo: "dict[str, str]" = {}
_p2p_memo: "dict[tuple[str, int], str | None]" = {}

#: Canonical IPv4 dotted quad: four 0–255 octets, no leading zeros.
#: Strings matching this are already in ``str(parse_ip(s))`` form and
#: carry their octets in the groups, so the memo-miss paths below can
#: skip ``ipaddress`` parsing entirely.  Anything else (IPv6,
#: non-canonical quads, garbage) falls through to the slow path.
_OCTET = r"(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9][0-9]|[0-9])"
_DOTTED_QUAD = re.compile(rf"^{_OCTET}\.{_OCTET}\.{_OCTET}\.{_OCTET}$")


def normalize_address(value) -> str:
    """``str(parse_ip(value))`` with a process-wide memo for strings.

    Address normalization is a pure function of the input string, yet
    it was the single hottest call in the pipeline (one ``ipaddress``
    parse per hop per trace).  Non-string inputs (already-parsed
    address objects) skip the memo.
    """
    if not isinstance(value, str):
        return str(parse_ip(value))
    cached = _normalize_memo.get(value)
    if cached is None:
        if _DOTTED_QUAD.match(value):
            cached = value  # already canonical
        else:
            cached = str(parse_ip(value))
        _normalize_memo[value] = cached
    return cached


def p2p_peer_str(address: str, prefixlen: int = 30) -> "str | None":
    """The point-to-point peer of *address* as a string, or None.

    Wraps :func:`repro.net.addresses.p2p_peer`, converting the
    ``AddressError`` raised for network/broadcast addresses into None —
    every caller in the inference path catches-and-skips, so the memo
    can store the failure too.
    """
    key = (address, prefixlen)
    cached = _p2p_memo.get(key, _MISS)
    if cached is _MISS:
        match = _DOTTED_QUAD.match(address) if prefixlen in (30, 31) else None
        if match is not None:
            last = int(match.group(4))
            if prefixlen == 31:
                peer_last: "int | None" = last ^ 1
            else:
                low2 = last & 0b11
                # low2 0/3 are the /30's network and broadcast
                # addresses — no peer, matching the AddressError path.
                peer_last = (
                    last + 1 if low2 == 0b01
                    else last - 1 if low2 == 0b10
                    else None
                )
            cached = (
                None if peer_last is None else
                f"{match.group(1)}.{match.group(2)}"
                f".{match.group(3)}.{peer_last}"
            )
        else:
            cached = _p2p_peer_slow(address, prefixlen)
        _p2p_memo[key] = cached
    return cached


def _p2p_peer_slow(address: str, prefixlen: int) -> "str | None":
    try:
        return str(p2p_peer(address, prefixlen))
    except AddressError:
        return None


def clear_module_memos() -> None:
    """Drop the process-wide memos (tests and benchmark isolation)."""
    _normalize_memo.clear()
    _p2p_memo.clear()


@dataclass
class CacheStats:
    """Hit/miss accounting, reported by ``--profile``.

    Since the observability layer landed this is a *snapshot view*:
    the canonical store is the cache's ``cache.*`` counters in its
    :class:`~repro.obs.metrics.MetricsRegistry`, and
    :attr:`InferenceCache.stats` materializes one of these on access.
    """

    lookup_hits: int = 0
    lookup_misses: int = 0
    parse_hits: int = 0
    parse_misses: int = 0
    invalidations: int = 0

    def as_dict(self) -> "dict[str, int]":
        return {
            "lookup_hits": self.lookup_hits,
            "lookup_misses": self.lookup_misses,
            "parse_hits": self.parse_hits,
            "parse_misses": self.parse_misses,
            "invalidations": self.invalidations,
        }


class InferenceCache:
    """Memoizes PTR lookups and hostname parses for one rDNS store.

    Shared by the IP→CO mapper, the adjacency extractor, and the region
    refiner so each address is looked up and each hostname parsed once
    per campaign, not once per use site.

    Invalidation: lookup-derived entries are dropped whenever the
    store's mutation ``epoch`` advances or a different fault injector
    is attached (identity comparison — stale-rDNS injection changes
    what ``lookup`` returns per address).  Hostname parses are pure and
    survive invalidation.
    """

    def __init__(self, rdns, parser, metrics: "MetricsRegistry | None" = None) -> None:
        self.rdns = rdns
        self.parser = parser
        #: Registry the hit/miss counters live in.  Sharing the run's
        #: registry (the pipeline does) makes cache behaviour part of
        #: the exported metrics snapshot; a private one is created
        #: otherwise so the counters always exist.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_lookup_hits = self.metrics.counter("cache.lookup_hits")
        self._c_lookup_misses = self.metrics.counter("cache.lookup_misses")
        self._c_parse_hits = self.metrics.counter("cache.parse_hits")
        self._c_parse_misses = self.metrics.counter("cache.parse_misses")
        self._c_invalidations = self.metrics.counter("cache.invalidations")
        self._lookup: "dict[str, str | None]" = {}
        self._parse: "dict[str, object]" = {}
        self._threshold: "dict[tuple[int, ...], float]" = {}
        self._epoch = getattr(rdns, "epoch", 0)
        self._faults = getattr(rdns, "faults", None)

    @property
    def stats(self) -> CacheStats:
        """Snapshot of the registry-backed hit/miss counters."""
        return CacheStats(
            lookup_hits=int(self._c_lookup_hits.value),
            lookup_misses=int(self._c_lookup_misses.value),
            parse_hits=int(self._c_parse_hits.value),
            parse_misses=int(self._c_parse_misses.value),
            invalidations=int(self._c_invalidations.value),
        )

    # ------------------------------------------------------------------
    def _check_generation(self) -> None:
        rdns = self.rdns
        epoch = getattr(rdns, "epoch", 0)
        faults = getattr(rdns, "faults", None)
        if epoch != self._epoch or faults is not self._faults:
            self._lookup.clear()
            self._epoch = epoch
            self._faults = faults
            self._c_invalidations.inc()

    # ------------------------------------------------------------------
    def lookup(self, address: str) -> "str | None":
        """Memoized combined PTR lookup (dig-over-snapshot priority)."""
        self._check_generation()
        cached = self._lookup.get(address, _MISS)
        if cached is _MISS:
            cached = self.rdns.lookup(address)
            self._lookup[address] = cached
            self._c_lookup_misses.inc()
        else:
            self._c_lookup_hits.inc()
        return cached

    def parse(self, hostname: "str | None"):
        """Memoized hostname parse (pure; never invalidated)."""
        if hostname is None:
            return None
        cached = self._parse.get(hostname, _MISS)
        if cached is _MISS:
            cached = self.parser.parse(hostname)
            self._parse[hostname] = cached
            self._c_parse_misses.inc()
        else:
            self._c_parse_hits.inc()
        return cached

    def parsed_lookup(self, address: str):
        """Parsed hostname of *address*'s combined PTR lookup."""
        return self.parse(self.lookup(address))

    def regional_co(self, address: str, isp: str):
        """(region, co_tag) when *address*'s name is a regional CO of *isp*."""
        return self.parser.regional_co_of(self.parsed_lookup(address), isp)

    def degree_threshold(self, degrees: "tuple[int, ...]") -> float:
        """Memoized mean + pstdev over an out-degree multiset.

        Region refinement recomputes the AggCO threshold for every
        region and every ablation rerun; the degree tuple is the whole
        input, so the statistic memoizes cleanly.
        """
        cached = self._threshold.get(degrees)
        if cached is None:
            cached = statistics.fmean(degrees) + statistics.pstdev(degrees)
            self._threshold[degrees] = cached
        return cached
