"""Property tests: the vectorized corpus primitives agree with the
object-graph reference on adversarial corpora — silent hops, TTL gaps,
duplicate addresses, and reversed DPR occurrences."""

import importlib.util
import pathlib
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.corpus import TraceCorpus, adjacent_pair_counts
from repro.infer.adjacency import AdjacencyExtractor, FollowupIndex
from repro.infer.ip2co import Ip2CoMapping
from repro.measure.traceroute import Hop, TraceResult
from repro.net.dns import RdnsStore

_ORACLE = pathlib.Path(__file__).resolve().parents[1] / "infer" / "dpr_oracle.py"
_spec = importlib.util.spec_from_file_location("dpr_oracle", _ORACLE)
dpr_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dpr_oracle)

#: A deliberately tiny alphabet so duplicates, reversed occurrences,
#: and pair collisions are common rather than rare.
ADDRESSES = ("10.0.0.1", "10.0.0.2", "10.0.1.1", "10.0.2.1")

#: Trivial mapping: three COs in one region plus one in another, so
#: classification exercises same-CO, same-region, and cross-region arms.
MAPPING = {
    "10.0.0.1": ("r1", "co-a"),
    "10.0.0.2": ("r1", "co-b"),
    "10.0.1.1": ("r1", "co-c"),
    "10.0.2.1": ("r2", "co-d"),
}


@st.composite
def trace_lists(draw):
    traces = []
    for _ in range(draw(st.integers(0, 5))):
        entries = draw(st.lists(
            st.one_of(st.none(), st.sampled_from(ADDRESSES)),
            min_size=0, max_size=6,
        ))
        hops = []
        index = 0
        for address in entries:
            # Occasional TTL gaps: unresponsive probes that were
            # dropped entirely rather than recorded as silent hops.
            index += draw(st.integers(1, 2))
            hops.append(Hop(index, address))
        traces.append(TraceResult(
            "192.0.2.1",
            draw(st.sampled_from(ADDRESSES)),
            hops,
            completed=draw(st.booleans()),
        ))
    return traces


@given(trace_lists())
def test_pair_counts_match_object_counter(traces):
    corpus = TraceCorpus.from_traces(traces)
    table = corpus.addresses
    for exclude in (False, True):
        reference: Counter = Counter()
        for trace in traces:
            reference.update(
                trace.adjacent_pairs(exclude_final_echo=exclude)
            )
        columnar = [
            ((table[first], table[second]), count)
            for first, second, count in adjacent_pair_counts(
                corpus, exclude_final_echo=exclude
            )
        ]
        # Equality of the *lists* asserts first-occurrence ordering
        # too, not just multiset equality.
        assert columnar == list(reference.items())


@given(trace_lists())
def test_followup_index_matches_reference_scan(traces):
    corpus = TraceCorpus.from_traces(traces)
    from_objects = FollowupIndex(traces)
    from_columns = FollowupIndex.from_columnar(corpus)
    for first in ADDRESSES:
        for second in ADDRESSES:
            expected = dpr_oracle.mpls_separated((first, second), traces)
            assert from_objects.separated(first, second) == expected
            assert from_columns.separated(first, second) == expected


@given(trace_lists(), trace_lists())
def test_extract_columnar_matches_extract(traces, followups):
    def extractor():
        return AdjacencyExtractor(
            Ip2CoMapping(mapping=dict(MAPPING)), RdnsStore(), "comcast"
        )

    reference = extractor().extract(traces, followup_traces=followups)
    columnar = extractor().extract_columnar(
        TraceCorpus.from_traces(traces),
        TraceCorpus.from_traces(followups),
    )
    assert columnar.stats == reference.stats
    assert columnar.per_region == reference.per_region
    assert list(columnar.per_region) == list(reference.per_region)
    assert columnar.backbone_pairs == reference.backbone_pairs
    assert columnar.cross_region_pairs == reference.cross_region_pairs
