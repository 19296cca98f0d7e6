"""Streaming incremental inference: parity, digests, epoch changes."""

import pytest

from repro.bias.incremental import (
    EpochChangeDetector,
    IncrementalCoGraph,
    assert_parity,
    region_digest,
)
from repro.errors import InferenceError
from repro.rdns.regexes import HostnameParser
from synthetic_inference import SHAPES, build_shape


@pytest.fixture(scope="module")
def parser():
    return HostnameParser()


def _fresh_graph(bias_internet, parser):
    return IncrementalCoGraph(
        bias_internet.network.rdns, "comcast", parser=parser
    )


class TestStreamingParity:
    def test_lab_scenario_is_digest_identical(self, lab_result):
        """The core contract: trace-by-trace ingest + snapshot equals
        the batch pipeline's extract + refine, byte for byte."""
        assert lab_result.stream.parity
        assert lab_result.stream.traces == len(lab_result.traces)

    def test_assert_parity_passes_and_fails(self, lab_result):
        snapshot = lab_result.snapshot
        digest = assert_parity(snapshot, snapshot.regions)
        assert digest == snapshot.digest
        first = sorted(snapshot.regions)[0]
        truncated = {
            name: region for name, region in snapshot.regions.items()
            if name != first
        }
        with pytest.raises(InferenceError):
            assert_parity(snapshot, truncated)

    def test_ingest_order_does_not_change_digest(self, bias_internet,
                                                 parser, lab_result):
        forward = _fresh_graph(bias_internet, parser)
        backward = _fresh_graph(bias_internet, parser)
        for trace in lab_result.traces:
            forward.ingest(trace)
        for trace in reversed(lab_result.traces):
            backward.ingest(trace)
        assert forward.snapshot().digest == backward.snapshot().digest

    def test_snapshot_is_repeatable(self, bias_internet, parser,
                                    lab_result):
        graph = _fresh_graph(bias_internet, parser)
        for trace in lab_result.traces:
            graph.ingest(trace)
        assert graph.snapshot().digest == graph.snapshot().digest
        assert graph.traces_ingested == len(lab_result.traces)

    def test_ingest_corpus_matches_trace_by_trace(self, bias_internet,
                                                  parser, lab_result):
        from repro.corpus.columnar import TraceCorpus

        corpus = TraceCorpus.from_traces(lab_result.traces)
        direct = _fresh_graph(bias_internet, parser)
        for trace in lab_result.traces:
            direct.ingest(trace)
        columnar = _fresh_graph(bias_internet, parser)
        assert columnar.ingest_corpus(corpus) == len(lab_result.traces)
        assert columnar.snapshot().digest == direct.snapshot().digest

    def test_followups_change_the_snapshot_index(self, bias_internet,
                                                 parser, lab_result):
        graph = _fresh_graph(bias_internet, parser)
        for trace in lab_result.traces:
            graph.ingest(trace)
        graph.ingest_followup(lab_result.traces[0])
        assert graph.followups_ingested == 1
        # Snapshot still materializes with the live follow-up index.
        assert graph.snapshot().traces_ingested == len(lab_result.traces)

    def test_region_digest_is_order_independent(self, lab_result):
        regions = lab_result.snapshot.regions
        reordered = dict(sorted(regions.items(), reverse=True))
        assert region_digest(regions) == region_digest(reordered)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_streaming_snapshot_matches_the_batch_digest(shape, parser):
    """Trace-by-trace ingest of a synthetic campaign snapshots to the
    region digest the batch stages are pinned to."""
    plan, corpus, followups = build_shape(shape)
    graph = IncrementalCoGraph(plan.rdns, plan.isp, parser=parser)
    for trace in corpus.to_traces():
        graph.ingest(trace)
    for trace in followups.to_traces():
        graph.ingest_followup(trace)
    assert graph.snapshot(aliases=plan.aliases).digest == SHAPES[shape][1]


class TestEpochDetector:
    def test_lab_drill_detected_one_change(self, lab_result):
        assert lab_result.stream.epoch_changes == 1

    def test_poll_reports_then_settles(self, bias_internet, parser,
                                       lab_result):
        rdns = bias_internet.network.rdns
        mapping = lab_result.snapshot.mapping.mapping
        mapped = [a for a in sorted(mapping) if rdns.lookup(a) is not None]
        moved = mapped[0]
        donor = next(
            a for a in mapped[1:] if mapping[a] != mapping[moved]
        )
        detector = EpochChangeDetector(rdns, "comcast", parser=parser)
        detector.watch(mapped)
        assert detector.watched == len(mapped)
        assert detector.poll() == []

        original = rdns.lookup(moved)
        rdns.set(moved, rdns.lookup(donor))
        try:
            changes = detector.poll()
            assert [c.address for c in changes] == [moved]
            # The same epoch polled twice reports nothing new.
            assert detector.poll() == []
        finally:
            rdns.set(moved, original)

    def test_restoring_the_record_is_itself_a_change(self, bias_internet,
                                                     parser, lab_result):
        rdns = bias_internet.network.rdns
        mapping = lab_result.snapshot.mapping.mapping
        mapped = [a for a in sorted(mapping) if rdns.lookup(a) is not None]
        moved = mapped[0]
        donor = next(
            a for a in mapped[1:] if mapping[a] != mapping[moved]
        )
        detector = EpochChangeDetector(rdns, "comcast", parser=parser)
        detector.watch([moved])
        original = rdns.lookup(moved)
        rdns.set(moved, rdns.lookup(donor))
        assert len(detector.poll()) == 1
        rdns.set(moved, original)
        changes = detector.poll()
        assert [c.address for c in changes] == [moved]
