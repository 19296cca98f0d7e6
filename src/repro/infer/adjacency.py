"""CO adjacency extraction and pruning (Appendix B.2, Table 4).

From the traceroute corpus, collect immediately adjacent responding
address pairs, lift them to CO adjacencies via the IP→CO mapping, and
prune four classes of false or out-of-scope adjacency:

* **MPLS tunnel entry/exit pairs** — a pair adjacent in the original
  corpus but separated by intermediate hops in the follow-up (DPR)
  corpus is a tunnel, not a link;
* **backbone adjacencies** — entries into the region are inferred
  separately (§5.2.5), so adjacencies touching a backbone hostname are
  set aside;
* **cross-region adjacencies** — overwhelmingly stale rDNS;
* **single-observation adjacencies** — traceroute noise (§5.2.1).

Table 4 accounting is derived from one explicit CO-pair universe: every
distinct CO pair reached from the IP pairs — backbone pairs tagged
apart from regional pairs — is a member, ``initial_co`` is its size,
and each pruning row counts the members it removed.  The IP column of
the Single row counts the *IP pairs* whose CO pair was pruned for
having a single observation, not the CO pairs themselves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.infer.ip2co import Ip2CoMapping
from repro.measure.traceroute import TraceResult
from repro.net.dns import RdnsStore
from repro.rdns.regexes import ISP_ALIASES, HostnameParser


@dataclass
class AdjacencyStats:
    """Pruning accounting in the shape of Table 4."""

    initial_ip: int = 0
    initial_co: int = 0
    mpls_ip: int = 0
    mpls_co: int = 0
    backbone_ip: int = 0
    backbone_co: int = 0
    cross_region_ip: int = 0
    cross_region_co: int = 0
    single_ip: int = 0
    single_co: int = 0

    def as_rows(self) -> "list[tuple[str, str, str]]":
        """Render the Table 4 rows (percentages relative to Initial)."""
        def pct(n: int, total: int) -> str:
            # A zero denominator renders like any other 0 ("0.00%", not
            # "0%") so Table 4 output diffs cleanly across runs.
            return f"{100.0 * n / total:.2f}%" if total else "0.00%"

        return [
            ("Initial", f"{self.initial_ip}", f"{self.initial_co}"),
            ("MPLS", pct(self.mpls_ip, self.initial_ip), pct(self.mpls_co, self.initial_co)),
            ("Backbone", pct(self.backbone_ip, self.initial_ip), pct(self.backbone_co, self.initial_co)),
            ("Cross-Region", pct(self.cross_region_ip, self.initial_ip), pct(self.cross_region_co, self.initial_co)),
            ("Single", pct(self.single_ip, self.initial_ip), pct(self.single_co, self.initial_co)),
        ]


@dataclass
class RegionAdjacencies:
    """Surviving CO adjacencies per region, with observation counts."""

    #: region -> {(co_a, co_b): observation count} (directed, in path order).
    per_region: "dict[str, Counter]" = field(default_factory=dict)
    #: Adjacencies touching a backbone hop, kept for entry inference:
    #: (backbone tag, region, co_tag) -> count.
    backbone_pairs: "Counter" = field(default_factory=Counter)
    #: Pruned cross-region adjacencies — "overwhelmingly stale rDNS"
    #: (App. B.2) — kept for quarantine diagnostics:
    #: (region_a, co_a, region_b, co_b) -> count.
    cross_region_pairs: "Counter" = field(default_factory=Counter)
    stats: AdjacencyStats = field(default_factory=AdjacencyStats)

    def regions(self) -> "list[str]":
        return sorted(self.per_region)


class FollowupIndex:
    """Positional index over the follow-up (DPR) corpus.

    Built in one pass: for every responding address, the earliest and
    latest *hop index* (TTL) it occupies in each follow-up trace.  A
    pair ``(first, second)`` is MPLS-separated exactly when some trace
    shows an occurrence of *second* more than one hop after an
    occurrence of *first* — i.e. when ``max(second hop indexes) >
    min(first hop indexes) + 1`` in a trace containing both.  That is
    equivalent to scanning all occurrence pairs in path order, without
    the O(pairs × followups × length) rescans of the naive approach.

    Spacing is measured in hop-index (TTL) space, not in positions over
    ``responsive_addresses()``: a follow-up trace ``A, *, B`` reveals an
    interior hop even though it never responded, so the pair *is*
    tunnel-separated — compressing out silent hops would hide it.
    """

    def __init__(self, traces: "list[TraceResult]" = ()) -> None:
        #: address -> {trace index: (earliest hop idx, latest hop idx)}
        self._spans: "dict[str, dict[int, tuple[int, int]]]" = {}
        self._traces = 0
        for trace in traces:
            self.add(trace)

    def add(self, trace: TraceResult) -> None:
        """Index one more follow-up trace (the next trace index)."""
        t_index = self._traces
        for hop in trace.hops:
            if hop.address is None:
                continue
            spans = self._spans.setdefault(hop.address, {})
            seen = spans.get(t_index)
            if seen is None:
                spans[t_index] = (hop.index, hop.index)
            else:
                spans[t_index] = (seen[0], hop.index)
        self._traces += 1

    @classmethod
    def from_columnar(cls, corpus) -> "FollowupIndex":
        """Build the index from a columnar corpus without materializing
        ``TraceResult`` objects: spans come from one grouped min/max
        reduction over the hop columns
        (:func:`repro.corpus.columnar.hop_span_groups`).
        """
        from repro.corpus.columnar import hop_span_groups

        index = cls()
        index._traces = len(corpus)
        addr_ids, trace_ids, earliest, latest = hop_span_groups(corpus)
        addresses = corpus.addresses
        spans = index._spans
        for row in range(addr_ids.shape[0]):
            spans.setdefault(addresses[int(addr_ids[row])], {})[
                int(trace_ids[row])
            ] = (int(earliest[row]), int(latest[row]))
        return index

    def separated(self, first: str, second: str) -> bool:
        """Whether any follow-up trace shows hops *between* the pair."""
        spans_first = self._spans.get(first)
        spans_second = self._spans.get(second)
        if not spans_first or not spans_second:
            return False
        if len(spans_second) < len(spans_first):
            for t_index, (_, latest) in spans_second.items():
                seen = spans_first.get(t_index)
                if seen is not None and latest > seen[0] + 1:
                    return True
            return False
        for t_index, (earliest, _) in spans_first.items():
            seen = spans_second.get(t_index)
            if seen is not None and seen[1] > earliest + 1:
                return True
        return False


class AdjacencyExtractor:
    """Builds :class:`RegionAdjacencies` from the corpora."""

    def __init__(self, mapping: Ip2CoMapping, rdns: RdnsStore, isp: str,
                 parser: "HostnameParser | None" = None,
                 cache=None,
                 isp_aliases: "tuple[str, ...]" = ()) -> None:
        self.mapping = mapping
        self.rdns = rdns
        self.isp = isp
        self.parser = parser or HostnameParser()
        #: Shared :class:`~repro.perf.cache.InferenceCache`; optional —
        #: a bare extractor works against the store directly.
        self.cache = cache
        #: Hostname ISP labels accepted as this ISP for backbone
        #: routing: the exact name plus declared aliases, never a
        #: prefix match (``"at"`` must not claim ``"att"``).
        self._accepted_isps = frozenset(
            {isp} | set(ISP_ALIASES.get(isp, ())) | set(isp_aliases)
        )

    # -- helpers -------------------------------------------------------------
    def _backbone_tag(self, address: str) -> "str | None":
        if self.cache is not None:
            parsed = self.cache.parsed_lookup(address)
        else:
            parsed = self.parser.parse(self.rdns.lookup(address))
        if (
            parsed is not None
            and parsed.role == "backbone"
            and parsed.isp in self._accepted_isps
        ):
            return parsed.co_tag or parsed.region
        return None

    # -- the extraction ---------------------------------------------------
    def extract(
        self,
        traces: "list[TraceResult]",
        followup_traces: "list[TraceResult] | None" = None,
    ) -> RegionAdjacencies:
        """Lift IP adjacencies to pruned per-region CO adjacencies."""
        ip_pairs: Counter = Counter()
        for trace in traces:
            for pair in trace.adjacent_pairs():
                ip_pairs[pair] += 1
        followup_index = (
            FollowupIndex(followup_traces) if followup_traces else None
        )
        return self._classify(ip_pairs.items(), followup_index)

    def extract_columnar(
        self, corpus, followup_corpus=None
    ) -> RegionAdjacencies:
        """:meth:`extract` over columnar corpora.

        Pair extraction and follow-up span computation run as numpy
        reductions (:func:`repro.corpus.columnar.adjacent_pair_counts`
        emits unique pairs in first-occurrence order, matching the
        object path's Counter insertion order exactly); the
        classification itself is shared with :meth:`extract`.
        """
        from repro.corpus.columnar import adjacent_pair_counts

        addresses = corpus.addresses.strings
        pair_counts = (
            ((addresses[first], addresses[second]), count)
            for first, second, count in adjacent_pair_counts(corpus)
        )
        followup_index = (
            FollowupIndex.from_columnar(followup_corpus)
            if followup_corpus is not None and len(followup_corpus)
            else None
        )
        return self._classify(pair_counts, followup_index)

    def _classify(
        self, pair_counts, followup_index: "FollowupIndex | None"
    ) -> RegionAdjacencies:
        """The shared pruning/accounting pass over ``(pair, count)``
        items (insertion-ordered — output ordering follows it).  With
        no *followup_index* nothing is MPLS-pruned."""
        result = RegionAdjacencies()
        stats = result.stats

        co_pairs: "dict[tuple[str, str, str], int]" = {}  # (region, a, b) -> n
        #: Surviving CO pair -> number of distinct contributing IP pairs
        #: (the Single row's IP column counts these, not CO pairs).
        co_pair_ip_sources: Counter = Counter()
        co_backbone: Counter = Counter()
        co_cross: Counter = Counter()
        mpls_co_pairs: set = set()

        # The one CO-pair universe all Table 4 CO columns derive from.
        # Backbone pairs get a distinguishing tag so a backbone PoP can
        # never collide with (and be double- or under-counted against)
        # a regional CO pair.
        universe: set = set()
        backbone_keys: set = set()

        for (ip_a, ip_b), count in pair_counts:
            stats.initial_ip += 1
            bb_tag = self._backbone_tag(ip_a)
            co_b = self.mapping.co_of(ip_b)
            if bb_tag is not None:
                stats.backbone_ip += 1
                if co_b is not None:
                    key = (bb_tag, co_b[0], co_b[1])
                    co_backbone[key] += count
                    backbone_keys.add(key)
                    universe.add(("backbone",) + key)
                continue
            co_a = self.mapping.co_of(ip_a)
            if co_a is None or co_b is None:
                continue
            if co_a == co_b:
                continue
            region_a, tag_a = co_a
            region_b, tag_b = co_b
            universe.add((region_a, tag_a, region_b, tag_b))
            if region_a != region_b:
                stats.cross_region_ip += 1
                co_cross[(region_a, tag_a, region_b, tag_b)] += count
                continue
            if followup_index is not None and followup_index.separated(
                ip_a, ip_b
            ):
                stats.mpls_ip += 1
                mpls_co_pairs.add((region_a, tag_a, tag_b))
                continue
            key = (region_a, tag_a, tag_b)
            co_pairs[key] = co_pairs.get(key, 0) + count
            co_pair_ip_sources[key] += 1

        stats.initial_co = len(universe)
        stats.backbone_co = len(backbone_keys)
        stats.cross_region_co = len(co_cross)
        stats.mpls_co = len(mpls_co_pairs)

        # Single-observation pruning (§5.2.1).
        for key, count in co_pairs.items():
            region, tag_a, tag_b = key
            if count < 2:
                stats.single_co += 1
                stats.single_ip += co_pair_ip_sources[key]
                continue
            result.per_region.setdefault(region, Counter())[(tag_a, tag_b)] = count
        result.backbone_pairs = co_backbone
        result.cross_region_pairs = co_cross
        return result
