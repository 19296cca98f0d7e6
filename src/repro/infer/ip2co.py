"""IP address → CO mapping (Appendix B.1, Table 3).

Three stages, each tracked for the Table 3 churn accounting:

1. **Initial**: reverse-lookup every observed address (dig first, bulk
   snapshot second) plus every address in the same point-to-point
   subnet, and extract (region, CO tag) with the hostname regexes.
2. **Alias resolution**: remap whole alias sets to their majority CO
   tag; on a tie, drop the mapping rather than keep a conflicting one.
3. **Point-to-point subnets**: a router usually replies from the
   inbound interface, so the *other* address of that /30 or /31 sits on
   the previous-hop router; votes from those peer addresses correct or
   fill the previous hop's mapping (Fig 19).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.alias.resolve import AliasSets
from repro.measure.traceroute import TraceResult
from repro.net.addresses import normalize_address, p2p_peer_str
from repro.net.dns import RdnsStore
from repro.rdns.regexes import HostnameParser

CoRef = "tuple[str, str]"  # (region, co_tag)


@dataclass(frozen=True)
class CoConflict:
    """One IP claimed by multiple COs with no majority — the paper's
    stale-rDNS signature (App. B.1).  ``dropped`` records whether the
    conflict cost the address its mapping (alias ties do; p2p ties
    merely fail to correct)."""

    address: str
    #: The competing (region, co_tag) claims, sorted for determinism.
    candidates: "tuple[tuple[str, str], ...]"
    #: Which voting stage observed the conflict: alias-tie / p2p-tie.
    source: str
    dropped: bool = True


@dataclass
class Ip2CoStats:
    """Churn accounting in the shape of Table 3."""

    initial: int = 0
    alias_changed: int = 0
    alias_added: int = 0
    alias_removed: int = 0
    after_alias: int = 0
    p2p_changed: int = 0
    p2p_added: int = 0
    final: int = 0

    def as_rows(self) -> "list[tuple[str, str]]":
        """Render the Table 3 rows (percentages relative to `initial`)."""
        def pct(n: int) -> str:
            return f"{100.0 * n / self.initial:.2f}%" if self.initial else "0.00%"

        return [
            ("Initial", f"{self.initial}"),
            ("Alias changed", pct(self.alias_changed)),
            ("Alias added", pct(self.alias_added)),
            ("Alias removed", pct(self.alias_removed)),
            ("After alias", f"{self.after_alias}"),
            ("P2P changed", pct(self.p2p_changed)),
            ("P2P added", pct(self.p2p_added)),
            ("Final", f"{self.final}"),
        ]


@dataclass
class Ip2CoMapping:
    """The resolved address → (region, co_tag) mapping."""

    mapping: "dict[str, CoRef]" = field(default_factory=dict)
    stats: Ip2CoStats = field(default_factory=Ip2CoStats)
    #: Conflicting observations seen while voting (quarantine fodder).
    conflicts: "list[CoConflict]" = field(default_factory=list)

    def co_of(self, address: "str | None") -> "Optional[CoRef]":
        if address is None:
            return None
        return self.mapping.get(address)

    def __len__(self) -> int:
        return len(self.mapping)


class Ip2CoMapper:
    """Runs the three B.1 stages over a traceroute corpus."""

    def __init__(self, rdns: RdnsStore, isp: str, p2p_prefixlen: int = 30,
                 parser: "HostnameParser | None" = None, cache=None) -> None:
        self.rdns = rdns
        self.isp = isp
        self.p2p_prefixlen = p2p_prefixlen
        self.parser = parser or HostnameParser()
        #: Shared :class:`~repro.perf.cache.InferenceCache`; optional —
        #: a bare mapper works against the store directly.
        self.cache = cache

    # -- stage 1 -----------------------------------------------------------
    def _lookup_co(self, address: str) -> "Optional[CoRef]":
        if self.cache is not None:
            return self.cache.regional_co(address, self.isp)
        return self.parser.regional_co(self.rdns.lookup(address), self.isp)

    def initial_mapping(self, addresses: "set[str]") -> "dict[str, CoRef]":
        mapping = {}
        for address in sorted(addresses):
            co = self._lookup_co(address)
            if co is not None:
                mapping[address] = co
        return mapping

    # -- stage 2 -----------------------------------------------------------
    def _apply_alias_groups(
        self, mapping: "dict[str, CoRef]", aliases: AliasSets,
        stats: Ip2CoStats, conflicts: "list[CoConflict]",
    ) -> None:
        for group in aliases.groups:
            votes: Counter = Counter()
            for address in group:
                co = mapping.get(address) or self._lookup_co(address)
                if co is not None:
                    votes[co] += 1
            if not votes:
                continue
            ranked = votes.most_common()
            top_co, top_count = ranked[0]
            tie = len(ranked) > 1 and ranked[1][1] == top_count
            tied_cos = tuple(
                sorted(co for co, n in ranked if n == top_count)
            ) if tie else ()
            for address in group:
                if tie:
                    # Conflicting evidence with no majority: drop rather
                    # than risk a wrong building (App. B.1).
                    if address in mapping:
                        del mapping[address]
                        stats.alias_removed += 1
                        conflicts.append(CoConflict(
                            address=address, candidates=tied_cos,
                            source="alias-tie", dropped=True,
                        ))
                    continue
                old = mapping.get(address)
                if old is None:
                    mapping[address] = top_co
                    stats.alias_added += 1
                elif old != top_co:
                    mapping[address] = top_co
                    stats.alias_changed += 1

    # -- stage 3 -----------------------------------------------------------
    def _apply_p2p_votes(
        self,
        mapping: "dict[str, CoRef]",
        pair_counts,
        stats: Ip2CoStats,
        conflicts: "list[CoConflict]",
    ) -> None:
        """Vote from ``((prev, cur), count)`` items, echo pairs excluded.

        Pairs arrive in first-occurrence order, so the votes dict — and
        therefore the conflicts list — is ordered as an occurrence walk
        over the traces would order it.  All votes are collected before
        any mapping mutation, so their application is order-independent
        per address.
        """
        votes: "dict[str, Counter]" = {}
        for (prev_addr, cur_addr), count in pair_counts:
            peer = p2p_peer_str(cur_addr, self.p2p_prefixlen)
            if peer is None:
                continue
            peer_co = mapping.get(peer)
            if peer_co is None:
                continue
            # The peer of the inbound interface most likely sits on
            # the previous-hop router (Fig 19).
            votes.setdefault(prev_addr, Counter())[peer_co] += count
        for address, counter in votes.items():
            ranked = counter.most_common()
            top_co, top_count = ranked[0]
            if len(ranked) > 1 and ranked[1][1] == top_count:
                # Tied peer votes: the correction fails but the existing
                # mapping (if any) survives — record, don't drop.
                conflicts.append(CoConflict(
                    address=address,
                    candidates=tuple(sorted(
                        co for co, n in ranked if n == top_count
                    )),
                    source="p2p-tie", dropped=False,
                ))
                continue
            old = mapping.get(address)
            if old is None:
                mapping[address] = top_co
                stats.p2p_added += 1
            elif old != top_co and counter[top_co] > counter.get(old, 0):
                mapping[address] = top_co
                stats.p2p_changed += 1

    # -- the full run --------------------------------------------------------
    def _run_stages(
        self,
        responding: "set[str]",
        p2p_pairs,
        aliases: "AliasSets | None",
        extra_addresses: "set[str] | None",
    ) -> Ip2CoMapping:
        """Stages 1–3 over representation-neutral inputs.

        *responding* is the set of addresses that answered at some hop;
        *p2p_pairs* yields ``((prev, cur), count)`` for every unique
        adjacent pair, the final echo of a completed trace excluded, in
        first-occurrence order.  Every corpus representation reduces to
        these two inputs, so the stages exist once.
        """
        addresses = set(responding)
        for address in responding:
            peer = p2p_peer_str(address, self.p2p_prefixlen)
            if peer is not None:
                addresses.add(peer)
        if extra_addresses:
            addresses |= {normalize_address(a) for a in extra_addresses}
        stats = Ip2CoStats()
        mapping = self.initial_mapping(addresses)
        stats.initial = len(mapping)
        conflicts: "list[CoConflict]" = []
        if aliases is not None:
            self._apply_alias_groups(mapping, aliases, stats, conflicts)
        stats.after_alias = len(mapping)
        self._apply_p2p_votes(mapping, p2p_pairs, stats, conflicts)
        stats.final = len(mapping)
        return Ip2CoMapping(mapping=mapping, stats=stats, conflicts=conflicts)

    def build(self, traces: "list[TraceResult]", aliases: AliasSets,
              extra_addresses: "set[str] | None" = None) -> Ip2CoMapping:
        """Run all three stages; *extra_addresses* joins stage 1's input
        (e.g. every rDNS-bearing address of the ISP, §5.1)."""
        responding: "set[str]" = set()
        pairs: Counter = Counter()
        for trace in traces:
            for hop in trace.hops:
                if hop.address is not None:
                    responding.add(hop.address)
            for pair in trace.adjacent_pairs(exclude_final_echo=True):
                pairs[pair] += 1
        return self._run_stages(
            responding, pairs.items(), aliases, extra_addresses
        )

    def build_columnar(self, corpus, aliases: AliasSets,
                       extra_addresses: "set[str] | None" = None) -> Ip2CoMapping:
        """:meth:`build` over a columnar corpus.

        The stage inputs come from the hop columns: the unique
        responding address ids and the vectorized pair counts, which
        :func:`~repro.corpus.columnar.adjacent_pair_counts` emits in
        first-occurrence order like the object path's ``Counter``.
        """
        from repro.corpus.columnar import (
            adjacent_pair_counts,
            responding_address_ids,
        )

        table = corpus.addresses.strings
        responding = {
            table[addr_id] for addr_id in responding_address_ids(corpus).tolist()
        }
        pairs = (
            ((table[first], table[second]), count)
            for first, second, count in adjacent_pair_counts(
                corpus, exclude_final_echo=True
            )
        )
        return self._run_stages(responding, pairs, aliases, extra_addresses)
