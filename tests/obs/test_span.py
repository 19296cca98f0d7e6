"""Span tree semantics: nesting, determinism, error status, and the
views read off the tree (phase totals, stage summaries, the profile
report)."""

import pytest

from repro.obs import Span, Tracer, phase_report


def _sample_run(tracer):
    """A fixed little span program used by the determinism tests."""
    with tracer.span("collect", jobs=4):
        with tracer.span("stage:slash24", jobs=2):
            pass
        with tracer.span("stage:followup", jobs=2):
            pass
    with tracer.span("refine"):
        pass
    with tracer.span("refine"):
        pass


class TestNesting:
    def test_depth_and_parent_links(self):
        tracer = Tracer(seed=7)
        _sample_run(tracer)
        spans = tracer.spans
        assert [s.name for s in spans] == [
            "collect", "stage:slash24", "stage:followup", "refine", "refine"
        ]
        collect = spans[0]
        assert collect.depth == 0 and collect.parent_id is None
        for child in spans[1:3]:
            assert child.depth == 1
            assert child.parent_id == collect.span_id
        assert [c.name for c in tracer.children(collect)] == [
            "stage:slash24", "stage:followup"
        ]

    def test_current_tracks_the_open_span(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer"):
            assert tracer.current().name == "outer"
            with tracer.span("inner"):
                assert tracer.current().name == "inner"
            assert tracer.current().name == "outer"
        assert tracer.current() is None

    def test_attributes_captured_and_mutable(self):
        tracer = Tracer()
        with tracer.span("collect", jobs=9) as span:
            span.attributes["traces"] = 8
        assert tracer.spans[0].attributes == {"jobs": 9, "traces": 8}

    def test_timings_are_monotonic(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans
        assert a.duration_s >= 0 and b.duration_s >= 0
        assert b.start_offset_s >= a.start_offset_s


class TestDeterminism:
    def test_same_seed_same_program_identical_structure(self):
        one, two = Tracer(seed=3), Tracer(seed=3)
        _sample_run(one)
        _sample_run(two)
        assert one.structural_dicts() == two.structural_dicts()

    def test_span_ids_never_depend_on_wall_clock(self):
        # structural_dict must not leak any timing field.
        tracer = Tracer(seed=3)
        _sample_run(tracer)
        for payload in tracer.structural_dicts():
            assert "duration_s" not in payload
            assert "start_offset_s" not in payload

    def test_different_seed_different_ids(self):
        one, two = Tracer(seed=3), Tracer(seed=4)
        _sample_run(one)
        _sample_run(two)
        ids_one = [s.span_id for s in one.spans]
        ids_two = [s.span_id for s in two.spans]
        assert ids_one != ids_two
        assert len(set(ids_one)) == len(ids_one), "ids must be unique"

    def test_repeated_names_get_distinct_ids(self):
        tracer = Tracer()
        _sample_run(tracer)
        refines = [s.span_id for s in tracer.spans if s.name == "refine"]
        assert len(set(refines)) == 2


class TestErrorStatus:
    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        inner, outer = tracer.spans[1], tracer.spans[0]
        assert inner.status == "error" and outer.status == "error"
        assert inner.duration_s >= 0, "duration recorded despite the raise"
        assert tracer.current() is None, "stack unwound"

    def test_error_status_survives_into_summaries(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("collect"):
                raise RuntimeError
        assert tracer.stage_summaries()[0]["status"] == "error"


class TestViews:
    def test_phase_totals_top_level_only_first_seen_order(self):
        tracer = Tracer()
        _sample_run(tracer)
        totals = tracer.phase_totals()
        assert list(totals) == ["collect", "refine"]
        refine_spans = [
            s for s in tracer.spans if s.name == "refine" and s.depth == 0
        ]
        assert totals["refine"] == pytest.approx(
            sum(s.duration_s for s in refine_spans)
        )

    def test_phase_report_is_read_off_the_phase_totals(self):
        tracer = Tracer(seed=0)
        _sample_run(tracer)
        lines = phase_report(tracer)
        assert [line.split()[0] for line in lines] == [
            "collect", "refine", "total", "peak",
        ]
        seconds = {
            line.split()[0]: float(line.split()[1].rstrip("s"))
            for line in lines[:2]
        }
        for name, total in tracer.phase_totals().items():
            assert seconds[name] == pytest.approx(total, abs=1e-3)
        assert lines[-1].startswith("peak rss") and lines[-1].endswith("MiB")

    def test_phase_report_ends_with_the_cyclic_collections_when_given(self):
        from repro.perf.gcpause import GcActivity

        tracer = Tracer(seed=0)
        _sample_run(tracer)
        activity = GcActivity()
        activity.collections = [83, 1, 0]
        activity.seconds = 0.0125
        lines = phase_report(tracer, activity)
        assert [line.split()[0] for line in lines] == ["collect", "refine", "total", "peak", "cyclic"]
        assert lines[-1] == "cyclic gc           0.013s  gen0 83 / gen1 1 / gen2 0"

    def test_stage_summaries_count_descendants(self):
        tracer = Tracer()
        _sample_run(tracer)
        summaries = tracer.stage_summaries()
        assert [(s["name"], s["spans"]) for s in summaries] == [
            ("collect", 3), ("refine", 1), ("refine", 1)
        ]

    def test_to_json_is_a_standalone_document(self):
        import json

        tracer = Tracer(seed=11)
        _sample_run(tracer)
        payload = json.loads(tracer.to_json())
        assert payload["kind"] == "span-trace"
        assert payload["seed"] == 11
        assert len(payload["spans"]) == 5


class TestSpanDataclass:
    def test_structural_dict_copies_attributes(self):
        span = Span(
            name="x", span_id="a" * 16, parent_id=None, depth=0, index=0,
            attributes={"jobs": 1},
        )
        payload = span.structural_dict()
        payload["attributes"]["jobs"] = 99
        assert span.attributes["jobs"] == 1
