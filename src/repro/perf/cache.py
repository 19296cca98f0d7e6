"""Shared, fault-injection-safe memoization for the inference hot path.

Profiling the cable pipeline shows three dominant costs, all pure
recomputation: address-string normalization (``str(parse_ip(s))``),
point-to-point peer derivation, and PTR-lookup + hostname-regex parsing
repeated once per IP *pair* instead of once per IP.  The first is a
bounded process-wide LRU on
:func:`repro.net.addresses.normalize_address` (:func:`clear_module_memos`
empties it for benchmark isolation); the second is cheap enough on its
dotted-quad fast path to need no memo.  This module holds the third:

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

import statistics
from dataclasses import dataclass

from repro.net.addresses import normalize_address
from repro.obs.metrics import MetricsRegistry

_MISS = object()


def clear_module_memos() -> None:
    """Empty the process-wide address memo (benchmark isolation)."""
    normalize_address.cache_clear()


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
