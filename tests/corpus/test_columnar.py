"""Columnar corpus core: lossless round-trips and the vectorized
primitives against their object-graph references."""

from collections import Counter

import pytest

from repro.corpus import CorpusBuilder, TraceCorpus, adjacent_pair_counts
from repro.corpus.columnar import hop_span_groups, responding_address_ids
from repro.infer.adjacency import FollowupIndex
from repro.io.checkpoint import trace_to_dict
from repro.measure.traceroute import Hop, TraceResult


def rich_traces() -> "list[TraceResult]":
    """A small corpus exercising every optional field and edge shape:
    silent hops, missing rdns/rtt/reply_ttl, retries, an empty trace,
    TTL gaps, duplicate addresses, and both completed flags."""
    return [
        TraceResult(
            "192.0.2.1", "10.0.0.9",
            [
                Hop(1, "10.0.0.1", rdns="a.example.net", rtt_ms=1.5,
                    reply_ttl=63),
                Hop(2, None, attempts=3),
                Hop(3, "10.0.0.2", rtt_ms=2.25),
                Hop(4, "10.0.0.1", reply_ttl=200),
            ],
            completed=True, flow_id=7, vp_name="vp-east",
        ),
        TraceResult("192.0.2.1", "10.0.0.9", [], vp_name="vp-west"),
        TraceResult(
            "192.0.2.2", "10.0.1.1",
            [Hop(2, "10.0.0.2", rdns="b.example.net"), Hop(5, "10.0.1.1")],
            completed=True, flow_id=1, vp_name="vp-east",
        ),
    ]


def _dicts(traces):
    # Hop/TraceResult are dataclasses, but NaN-free dict form compares
    # reliably and pinpoints the diverging field on failure.
    return [trace_to_dict(trace) for trace in traces]


class TestRoundTrip:
    def test_lossless(self):
        traces = rich_traces()
        assert _dicts(TraceCorpus.from_traces(traces).to_traces()) == \
            _dicts(traces)

    def test_empty_corpus(self):
        corpus = TraceCorpus.from_traces([])
        assert len(corpus) == 0
        assert corpus.hop_count == 0
        assert corpus.to_traces() == []
        assert adjacent_pair_counts(corpus) == []
        assert responding_address_ids(corpus).shape == (0,)

    def test_addresses_interned_once(self):
        strings = TraceCorpus.from_traces(rich_traces()).addresses.strings
        assert strings.count("10.0.0.1") == 1
        assert len(strings) == len(set(strings))

    def test_corpus_equality_survives_relift(self):
        # NaN rtt cells must compare equal to themselves (equal_nan).
        corpus = TraceCorpus.from_traces(rich_traces())
        assert corpus == TraceCorpus.from_traces(corpus.to_traces())


class TestCorpusBuilder:
    def test_add_path_matches_object_lift(self):
        chains = [
            ["10.0.0.1", "10.0.0.2"],
            [],
            ["10.0.0.2", "10.0.1.1", "10.0.0.2"],
        ]
        builder = CorpusBuilder()
        for chain in chains:
            builder.add_path(
                "192.0.2.1", chain[-1] if chain else "192.0.2.9", chain
            )
        via_objects = TraceCorpus.from_traces([
            TraceResult(
                "192.0.2.1", chain[-1] if chain else "192.0.2.9",
                [Hop(i + 1, a) for i, a in enumerate(chain)],
            )
            for chain in chains
        ])
        assert builder.build() == via_objects

    def test_len_counts_appended_traces(self):
        builder = CorpusBuilder()
        assert len(builder) == 0
        builder.add_path("s", "d", ["10.0.0.1"])
        builder.add_trace(TraceResult("s", "d", []))
        assert len(builder) == 2


class TestAdjacentPairCounts:
    @staticmethod
    def _reference(traces, exclude):
        counter: Counter = Counter()
        for trace in traces:
            counter.update(trace.adjacent_pairs(exclude_final_echo=exclude))
        return list(counter.items())

    @staticmethod
    def _columnar(corpus, exclude):
        table = corpus.addresses
        return [
            ((table[first], table[second]), count)
            for first, second, count in adjacent_pair_counts(
                corpus, exclude_final_echo=exclude
            )
        ]

    @pytest.mark.parametrize("exclude", [False, True])
    def test_matches_object_reference_in_order(self, exclude):
        traces = rich_traces()
        corpus = TraceCorpus.from_traces(traces)
        assert self._columnar(corpus, exclude) == \
            self._reference(traces, exclude)

    def test_silent_hop_breaks_adjacency(self):
        trace = TraceResult(
            "s", "d", [Hop(1, "10.0.0.1"), Hop(2, None), Hop(3, "10.0.0.2")]
        )
        assert adjacent_pair_counts(TraceCorpus.from_traces([trace])) == []

    def test_final_echo_excluded_only_when_completed(self):
        hops = [Hop(1, "10.0.0.1"), Hop(2, "10.0.0.9")]
        completed = TraceResult("s", "10.0.0.9", hops, completed=True)
        incomplete = TraceResult(
            "s", "10.0.0.9", [Hop(h.index, h.address) for h in hops]
        )
        traces = [completed, incomplete]
        corpus = TraceCorpus.from_traces(traces)
        with_echo = self._columnar(corpus, False)
        without_echo = self._columnar(corpus, True)
        assert with_echo == [(("10.0.0.1", "10.0.0.9"), 2)]
        # Only the incomplete trace's occurrence survives the exclusion.
        assert without_echo == [(("10.0.0.1", "10.0.0.9"), 1)]
        assert without_echo == self._reference(traces, True)

    def test_both_variants_reuse_one_cached_sort(self):
        traces = rich_traces()
        corpus = TraceCorpus.from_traces(traces)
        assert self._columnar(corpus, False) == self._reference(traces, False)
        assert "pair_sort" in corpus._derived
        sort_before = corpus._derived["pair_sort"]
        assert self._columnar(corpus, True) == self._reference(traces, True)
        assert corpus._derived["pair_sort"] is sort_before


class TestDerivedColumns:
    def test_responding_address_ids(self):
        traces = rich_traces()
        corpus = TraceCorpus.from_traces(traces)
        expected = sorted(
            corpus.addresses.get(hop.address)
            for hop in {
                hop.address: hop
                for trace in traces
                for hop in trace.hops
                if hop.address is not None
            }.values()
        )
        assert responding_address_ids(corpus).tolist() == expected

    def test_hop_span_groups_match_followup_index(self):
        traces = rich_traces()
        corpus = TraceCorpus.from_traces(traces)
        addr_ids, trace_ids, earliest, latest = hop_span_groups(corpus)
        spans: "dict[str, dict[int, tuple[int, int]]]" = {}
        for row in range(addr_ids.shape[0]):
            spans.setdefault(corpus.addresses[int(addr_ids[row])], {})[
                int(trace_ids[row])
            ] = (int(earliest[row]), int(latest[row]))
        assert spans == FollowupIndex(traces)._spans

    def test_hop_trace_ids_memoized(self):
        corpus = TraceCorpus.from_traces(rich_traces())
        first = corpus.hop_trace_ids()
        assert corpus.hop_trace_ids() is first
        assert first.tolist() == [0, 0, 0, 0, 2, 2]

    def test_last_hop_rows_flags_empty_traces(self):
        corpus = TraceCorpus.from_traces(rich_traces())
        assert corpus.last_hop_rows().tolist() == [3, 3, 5]
