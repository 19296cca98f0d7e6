"""Streaming incremental inference with batch digest parity.

The batch pipeline is a fold over the corpus: every stage consumes
either per-address lookups or insertion-ordered unique-pair counts.
:class:`IncrementalCoGraph` maintains exactly those sufficient
statistics trace-by-trace — O(hops) per ingest — and materializes a
full CO graph on demand by running the *same* stage code the batch
adapters call (:meth:`~repro.infer.ip2co.Ip2CoMapper._run_stages`,
:meth:`~repro.infer.adjacency.AdjacencyExtractor._classify` pruning,
:class:`~repro.infer.refine.RegionRefiner`).  Because the pair counts
accumulate in first-occurrence order — the batch Counter's insertion
order — a snapshot is digest-*identical* to rerunning the batch
pipeline over the same traces, not merely equivalent.  The regression
suite holds that parity as an oracle.

Longitudinal pieces ride along: :func:`ingest_from_store` drains
finished campaign-service jobs in submission order with a resumable
cursor, and :class:`EpochChangeDetector` watches the rDNS store's
epoch counter to report per-address CO reassignments — the §6
"mapping the same region a year later" workflow, without a rerun.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import InferenceError
from repro.infer.adjacency import AdjacencyExtractor, FollowupIndex, RegionAdjacencies
from repro.infer.ip2co import Ip2CoMapper, Ip2CoMapping
from repro.infer.refine import RegionRefiner
from repro.measure.traceroute import TraceResult
from repro.net.addresses import normalize_address
from repro.net.dns import RdnsStore


def region_digest(regions: "dict") -> str:
    """Order-independent digest of refined region graphs.

    Identical to the benchmark harness's digest (edges with weights
    plus agg-CO sets, JSON-canonicalized) so streaming snapshots,
    batch runs, and bench subprocesses all compare in one currency.
    """
    payload = {
        name: {
            "edges": sorted(
                (a, b, int(data.get("weight", 0)))
                for a, b, data in region.graph.edges(data=True)
            ),
            "aggs": sorted(region.agg_cos),
        }
        for name, region in regions.items()
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class StreamSnapshot:
    """One materialization of the streaming graph."""

    mapping: Ip2CoMapping
    adjacencies: RegionAdjacencies
    #: region name → RefinedRegion, refined in sorted-region order.
    regions: "dict[str, object]" = field(default_factory=dict)
    traces_ingested: int = 0
    followups_ingested: int = 0

    @property
    def digest(self) -> str:
        return region_digest(self.regions)


class IncrementalCoGraph:
    """Online CO-graph inference over a trace stream.

    Ingestion only updates counts; :meth:`snapshot` runs the voting,
    pruning, and refinement stages over the accumulated statistics.
    Traces must arrive in the same order the batch pipeline would read
    them for byte-identical digests (the graph itself is insensitive
    to order — only tie-breaking conflict *listings* can reorder).
    """

    def __init__(self, rdns: RdnsStore, isp: str, p2p_prefixlen: int = 30,
                 parser=None, cache=None,
                 isp_aliases: "tuple[str, ...]" = ()) -> None:
        self.mapper = Ip2CoMapper(
            rdns, isp, p2p_prefixlen=p2p_prefixlen, parser=parser, cache=cache
        )
        self.rdns = rdns
        self.isp = isp
        self.cache = cache
        self.isp_aliases = tuple(isp_aliases)
        #: Insertion-ordered unique-pair counts — the batch Counter's
        #: exact state, grown one trace at a time.
        self._pairs: "Counter[tuple[str, str]]" = Counter()
        #: Echo-excluded pair counts feeding the p2p vote (stage 3).
        self._p2p_pairs: "Counter[tuple[str, str]]" = Counter()
        #: Addresses that answered at some hop (stage 1's input).
        self._responding: "set[str]" = set()
        #: Live positional index over ingested follow-up (DPR) traces.
        self._followup_index = FollowupIndex()
        self.traces_ingested = 0
        self.followups_ingested = 0

    # ------------------------------------------------------------------
    # Ingestion — O(hops) per trace
    # ------------------------------------------------------------------
    def ingest(self, trace: TraceResult) -> None:
        """Fold one primary trace into the sufficient statistics."""
        for hop in trace.hops:
            if hop.address is not None:
                self._responding.add(hop.address)
        for pair in trace.adjacent_pairs():
            self._pairs[pair] += 1
        for pair in trace.adjacent_pairs(exclude_final_echo=True):
            self._p2p_pairs[pair] += 1
        self.traces_ingested += 1

    def ingest_followup(self, trace: TraceResult) -> None:
        """Fold one follow-up (DPR) trace into the MPLS span index."""
        self._followup_index.add(trace)
        self.followups_ingested += 1

    def ingest_corpus(self, corpus, followups: bool = False) -> int:
        """Ingest every trace of a columnar corpus, in stored order."""
        traces = corpus.to_traces()
        sink = self.ingest_followup if followups else self.ingest
        for trace in traces:
            sink(trace)
        return len(traces)

    # ------------------------------------------------------------------
    # Materialization — runs the batch stages over the counts
    # ------------------------------------------------------------------
    def snapshot(
        self,
        aliases=None,
        extra_addresses: "set[str] | None" = None,
        refiner: "RegionRefiner | None" = None,
    ) -> StreamSnapshot:
        """Run voting + pruning + refinement over the current state."""
        ip2co = self.mapper._run_stages(
            self._responding, self._p2p_pairs.items(), aliases,
            extra_addresses,
        )
        extractor = AdjacencyExtractor(
            ip2co, self.rdns, self.isp, parser=self.mapper.parser,
            cache=self.cache, isp_aliases=self.isp_aliases,
        )
        followup_index = (
            self._followup_index if self.followups_ingested else None
        )
        adjacencies = extractor._classify(self._pairs.items(), followup_index)

        refiner = refiner or RegionRefiner(cache=self.cache)
        regions = {
            name: refiner.refine(name, adjacencies.per_region[name])
            for name in adjacencies.regions()
        }
        return StreamSnapshot(
            mapping=ip2co,
            adjacencies=adjacencies,
            regions=regions,
            traces_ingested=self.traces_ingested,
            followups_ingested=self.followups_ingested,
        )


def ingest_from_store(graph: IncrementalCoGraph, state_dir,
                      after_seq: int = 0) -> "tuple[int, int]":
    """Drain finished service jobs' corpora into *graph*.

    Opens the campaign-service store read-only and ingests every
    *done* job with a corpus artifact whose ``submitted_seq`` exceeds
    *after_seq*, in submission order.  Returns ``(traces ingested,
    new cursor)`` — feed the cursor back to resume incrementally as
    the service completes more jobs.
    """
    from repro.service.diff import iter_finished_corpora
    from repro.service.store import JobStore

    store = JobStore.open(state_dir, readonly=True)
    total = 0
    cursor = after_seq
    for record, corpus in iter_finished_corpora(store, after_seq=after_seq):
        total += graph.ingest_corpus(corpus)
        cursor = max(cursor, record.submitted_seq)
    return total, cursor


@dataclass(frozen=True)
class CoChange:
    """One watched address whose CO assignment moved between epochs."""

    address: str
    old: "tuple[str, str] | None"
    new: "tuple[str, str] | None"


class EpochChangeDetector:
    """Longitudinal rDNS watcher keyed on the store's epoch counter.

    The rDNS store bumps :attr:`~repro.net.dns.RdnsStore.epoch` on
    every mutation, so polling is O(1) when nothing changed and one
    classification pass per watched address when something did.  The
    detector reports (address, old CO, new CO) deltas — the raw
    signal a longitudinal mapper quarantines or re-votes on.
    """

    def __init__(self, rdns: RdnsStore, isp: str, parser=None) -> None:
        from repro.rdns.regexes import HostnameParser

        self.rdns = rdns
        self.isp = isp
        self.parser = parser or HostnameParser()
        self._epoch = rdns.epoch
        self._assignments: "dict[str, tuple[str, str] | None]" = {}

    def _classify(self, address: str) -> "tuple[str, str] | None":
        return self.parser.regional_co(self.rdns.lookup(address), self.isp)

    def watch(self, addresses) -> None:
        """Start tracking *addresses* at their current classification."""
        for address in addresses:
            key = normalize_address(address)
            if key not in self._assignments:
                self._assignments[key] = self._classify(key)

    @property
    def watched(self) -> int:
        return len(self._assignments)

    def poll(self) -> "list[CoChange]":
        """Changes since the last poll ([] when the epoch is unmoved)."""
        if not self._assignments and self.rdns.epoch == self._epoch:
            return []
        if self.rdns.epoch == self._epoch:
            return []
        self._epoch = self.rdns.epoch
        changes = []
        for address in sorted(self._assignments):
            old = self._assignments[address]
            new = self._classify(address)
            if new != old:
                changes.append(CoChange(address=address, old=old, new=new))
                self._assignments[address] = new
        return changes


def assert_parity(stream: StreamSnapshot, batch_regions: "dict") -> str:
    """Raise unless the streaming digest matches the batch digest.

    Returns the (shared) digest so callers can record it in reports.
    """
    stream_digest = stream.digest
    batch = region_digest(batch_regions)
    if stream_digest != batch:
        raise InferenceError(
            "streaming/batch digest mismatch: "
            f"{stream_digest[:12]} != {batch[:12]}"
        )
    return stream_digest
