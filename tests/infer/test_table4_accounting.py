"""Table 4 accounting: exact row-by-row counts on a hand-built corpus.

Regression coverage for the pruning-accounting bugs:

* the Single row's IP column counting CO pairs instead of the
  contributing IP pairs;
* ``initial_co``/``backbone_co`` derived from ad-hoc set sums instead
  of one explicit CO-pair universe;
* the DPR separation scan trusting ``addresses.index`` (first
  occurrence) and ignoring hop order, so reversed or duplicate-hop DPR
  traces mis-classified pairs (the corrected scan is frozen in
  ``dpr_oracle.py``);
* ``_backbone_tag`` accepting any ISP *prefix* (a parsed ``"com"``
  claiming ``"comcast"`` backbone adjacencies).
"""

import pytest

from dpr_oracle import ReferenceIndex, mpls_separated
from repro.infer import adjacency
from repro.infer.adjacency import AdjacencyExtractor, FollowupIndex
from repro.infer.ip2co import Ip2CoMapping
from repro.measure.traceroute import Hop, TraceResult
from repro.net.dns import RdnsStore


def _trace(addresses):
    hops = [Hop(i + 1, addr) for i, addr in enumerate(addresses)]
    return TraceResult("192.0.2.1", addresses[-1], hops)


AGG1, AGG2 = "10.0.0.1", "10.0.0.2"
E1, E2, OTHER = "10.0.1.1", "10.0.2.1", "10.0.3.1"
REMOTE = "10.2.0.1"
BACKBONE = "4.4.4.4"
PREFIX_TRAP = "5.5.5.5"  # rDNS says isp "com", not "comcast"


@pytest.fixture()
def rdns():
    store = RdnsStore()
    store.set(BACKBONE, "be-1-cr01.denver.co.ibone.comcast.net")
    store.set(PREFIX_TRAP, "be-1-cr01.chicago.il.ibone.com.net")
    return store


@pytest.fixture()
def mapping():
    return Ip2CoMapping(mapping={
        AGG1: ("denver", "agg"),
        AGG2: ("denver", "agg"),
        E1: ("denver", "e1"),
        E2: ("denver", "e2"),
        OTHER: ("denver", "o"),
        REMOTE: ("seattle", "rem"),
    })


@pytest.fixture()
def corpus():
    """One IP pair per Table 4 row, plus the ISP-prefix trap."""
    traces = (
        [_trace([BACKBONE, AGG1])] * 2        # backbone row
        + [_trace([PREFIX_TRAP, E1])] * 2     # prefix ISP: must NOT be backbone
        + [_trace([REMOTE, E1])] * 3          # cross-region row
        + [_trace([AGG1, E2])] * 3            # MPLS row (separated below)
        + [_trace([AGG1, E1])] * 2            # kept: 2 obs from this IP pair
        + [_trace([AGG2, E1])]                # kept: +1 obs, second IP pair
        + [_trace([E1, OTHER])]               # single row
    )
    followups = [
        _trace([AGG1, OTHER, E2]),   # separates (AGG1, E2)
        _trace([E1, OTHER, AGG1]),   # reversed: must NOT separate (AGG1, E1)
        _trace([AGG1, E1, AGG1]),    # duplicate: still immediate, keep
    ]
    return traces, followups


class TestTable4Exact:
    @pytest.fixture(params=[FollowupIndex, ReferenceIndex],
                    ids=["indexed", "reference"])
    def extractor(self, request, mapping, rdns, monkeypatch):
        # "reference" answers every separation query with the oracle
        # scan, so the rows are checked independently of the index.
        monkeypatch.setattr(adjacency, "FollowupIndex", request.param)
        return AdjacencyExtractor(mapping, rdns, "comcast")

    def test_every_row_exact(self, extractor, corpus):
        traces, followups = corpus
        adjacencies = extractor.extract(traces, followup_traces=followups)
        stats = adjacencies.stats
        # 7 distinct IP pairs; the prefix-trap pair maps to no CO on
        # either side, so the CO universe has 5 members.
        assert stats.initial_ip == 7
        assert stats.initial_co == 5
        assert (stats.mpls_ip, stats.mpls_co) == (1, 1)
        assert (stats.backbone_ip, stats.backbone_co) == (1, 1)
        assert (stats.cross_region_ip, stats.cross_region_co) == (1, 1)
        assert (stats.single_ip, stats.single_co) == (1, 1)

    def test_survivors_and_set_asides(self, extractor, corpus):
        traces, followups = corpus
        adjacencies = extractor.extract(traces, followup_traces=followups)
        # The kept pair aggregates both contributing IP pairs' counts.
        assert adjacencies.per_region == {"denver": {("agg", "e1"): 3}}
        assert adjacencies.backbone_pairs == {
            ("denver.co", "denver", "agg"): 2
        }
        assert adjacencies.cross_region_pairs == {
            ("seattle", "rem", "denver", "e1"): 3
        }

    def test_rows_render_from_one_universe(self, extractor, corpus):
        traces, followups = corpus
        stats = extractor.extract(traces, followup_traces=followups).stats
        rows = dict(
            (label, (ip, co)) for label, ip, co in stats.as_rows()
        )
        assert rows["Initial"] == ("7", "5")
        assert rows["Single"] == ("14.29%", "20.00%")


class TestSingleRowIpColumn:
    def test_counts_contributing_ip_pairs(self, mapping, rdns):
        # Two separate single CO pairs, each fed by one IP pair: the IP
        # column tracks the contributing IP pairs of the pruned CO
        # pairs, not an unrelated CO-pair tally.
        extractor = AdjacencyExtractor(mapping, rdns, "comcast")
        traces = [_trace([E1, OTHER]), _trace([E2, OTHER])]
        stats = extractor.extract(traces).stats
        assert stats.single_co == 2
        assert stats.single_ip == 2
        assert stats.initial_co == 2


class TestDprOrderRegressions:
    """Shapes the first-occurrence scan mis-classified."""

    def _separated(self, followups, pair=(AGG1, E2)):
        reference = mpls_separated(pair, followups)
        indexed = FollowupIndex(followups).separated(*pair)
        assert reference == indexed  # the index is the scan, made fast
        return indexed

    def test_second_seen_before_first_then_again(self):
        # [second, first, x, second]: index() pinned second to position
        # 0 and concluded "not separated"; the later occurrence at
        # position 3 is what matters.
        assert self._separated([_trace([E2, AGG1, OTHER, E2])])

    def test_duplicate_second_after_adjacent_start(self):
        # [first, second, y, second]: the adjacent prefix hid the
        # second occurrence two hops later.
        assert self._separated([_trace([AGG1, E2, OTHER, E2])])

    def test_reversed_with_gap_does_not_separate(self):
        # second ... first with no later second: no evidence of an
        # interior hop in path order.
        assert not self._separated([_trace([E2, OTHER, AGG1])])

    def test_adjacent_duplicate_first_does_not_separate(self):
        # [first, second, first]: the pair is genuinely immediate.
        assert not self._separated([_trace([AGG1, E2, AGG1])])

    def test_index_equivalent_to_reference_on_all_small_shapes(self):
        # Exhaustive 4-hop corpora over a 3-address alphabet: the
        # positional index and the reference scan must always agree.
        import itertools

        alphabet = (AGG1, E2, OTHER)
        for shape in itertools.product(alphabet, repeat=4):
            followups = [_trace(list(shape))]
            self._separated(followups)


class TestSilentHopSeparation:
    """Spacing is measured in hop-index (TTL) space: ``A, *, B``
    separates even though the interior hop never responded.  A
    position-based scan over ``responsive_addresses()`` compressed the
    silent hop out and concluded "immediately adjacent"."""

    def _all_agree(self, followup, pair=(AGG1, E2)):
        from repro.corpus import TraceCorpus

        followups = [followup]
        reference = mpls_separated(pair, followups)
        indexed = FollowupIndex(followups).separated(*pair)
        columnar = FollowupIndex.from_columnar(
            TraceCorpus.from_traces(followups)
        ).separated(*pair)
        assert reference == indexed == columnar
        return reference

    def test_silent_interior_hop_separates(self):
        followup = TraceResult(
            "192.0.2.1", E2,
            [Hop(1, AGG1), Hop(2, None), Hop(3, E2)],
        )
        assert self._all_agree(followup)

    def test_ttl_gap_without_recorded_hop_separates(self):
        # Same evidence, thinner record: the unresponsive probe was
        # dropped entirely, leaving a gap in the hop indices.
        followup = TraceResult("192.0.2.1", E2, [Hop(1, AGG1), Hop(3, E2)])
        assert self._all_agree(followup)

    def test_consecutive_indices_do_not_separate(self):
        followup = TraceResult("192.0.2.1", E2, [Hop(1, AGG1), Hop(2, E2)])
        assert not self._all_agree(followup)

    def test_extract_prunes_pair_revealed_by_silent_hop(self, mapping, rdns):
        extractor = AdjacencyExtractor(mapping, rdns, "comcast")
        followup = TraceResult(
            "192.0.2.1", E2, [Hop(1, AGG1), Hop(2, None), Hop(3, E2)],
        )
        result = extractor.extract(
            [_trace([AGG1, E2])] * 2, followup_traces=[followup]
        )
        assert result.stats.mpls_ip == 1
        assert all(
            (AGG1, E2) not in counts for counts in result.per_region.values()
        )


class TestZeroDenominatorRows:
    """Percentage rows render "0.00%" — not a ZeroDivisionError, not
    "0%" — when the denominator corpus is empty."""

    def test_adjacency_rows_on_empty_corpus(self, mapping, rdns):
        stats = AdjacencyExtractor(mapping, rdns, "comcast").extract([]).stats
        rows = stats.as_rows()
        assert rows[0] == ("Initial", "0", "0")
        assert rows[1:] == [
            (label, "0.00%", "0.00%")
            for label in ("MPLS", "Backbone", "Cross-Region", "Single")
        ]

    def test_ip2co_rows_on_empty_corpus(self):
        from repro.alias.resolve import AliasSets
        from repro.infer.ip2co import Ip2CoMapper

        mapping = Ip2CoMapper(RdnsStore(), "comcast").build([], AliasSets([]))
        rows = dict(mapping.stats.as_rows())
        assert rows["Initial"] == "0"
        for label in ("Alias changed", "Alias added", "Alias removed",
                      "P2P changed", "P2P added"):
            assert rows[label] == "0.00%"


class TestBackboneIspMatching:
    def test_prefix_isp_rejected(self, mapping, rdns):
        extractor = AdjacencyExtractor(mapping, rdns, "comcast")
        stats = extractor.extract([_trace([PREFIX_TRAP, E1])] * 2).stats
        assert stats.backbone_ip == 0
        # The pair is unmapped on the trap side, so it leaves no
        # universe member at all — it must not be misrouted into the
        # backbone set-aside.
        assert stats.initial_co == 0

    def test_declared_alias_accepted(self, mapping, rdns):
        rdns.set("6.6.6.6", "be-1-cr01.reno.nv.ibone.comcastbiz.net")
        extractor = AdjacencyExtractor(
            mapping, rdns, "comcast", isp_aliases=("comcastbiz",)
        )
        adjacencies = extractor.extract([_trace(["6.6.6.6", AGG1])] * 2)
        assert adjacencies.stats.backbone_ip == 1
        assert adjacencies.backbone_pairs == {
            ("reno.nv", "denver", "agg"): 2
        }

    def test_exact_isp_still_accepted(self, mapping, rdns):
        extractor = AdjacencyExtractor(mapping, rdns, "comcast")
        adjacencies = extractor.extract([_trace([BACKBONE, AGG1])] * 2)
        assert adjacencies.stats.backbone_ip == 1
