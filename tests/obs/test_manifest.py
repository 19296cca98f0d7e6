"""RunManifest: build, round-trip, profiler agreement, and adversarial
mutation (every structured corruption must surface as SchemaError)."""

import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchemaError
from repro.faults import FaultPlan
from repro.obs import (
    MetricsRegistry,
    Tracer,
    build_run_manifest,
    fault_plan_digest,
    phase_report,
    run_manifest_from_json,
    run_manifest_to_json,
    sha256_text,
    write_run_manifest,
)
from repro.validate.schema import validate_artifact


def _sample_manifest():
    tracer = Tracer(seed=5)
    with tracer.span("collect", jobs=3):
        with tracer.span("stage:slash24"):
            pass
    with tracer.span("refine"):
        pass
    metrics = MetricsRegistry()
    metrics.inc("cache.lookup_hits", 4)
    metrics.set_gauge("campaign.probes_sent", 120)
    metrics.observe("stage.duration_s", 0.25)
    return build_run_manifest(
        command="map-cable",
        seed=3,
        parameters={"isp": "comcast", "sweep_vps": 6, "workers": 0},
        tracer=tracer,
        metrics=metrics,
        artifacts={"denver": '{"kind": "cable-region"}'},
        artifact_digests={"quarantine": "ab" * 32},
    )


class TestBuild:
    def test_schema_valid(self):
        validate_artifact(_sample_manifest(), kind="run-manifest")

    def test_stage_summaries_agree_with_profiler(self):
        tracer = Tracer(seed=1)
        with tracer.span("ip2co"):
            pass
        with tracer.span("adjacency"):
            pass
        manifest = build_run_manifest(command="bench", seed=1, tracer=tracer)
        stage_totals = {
            stage["name"]: stage["duration_s"] for stage in manifest["stages"]
        }
        report = phase_report(tracer)
        assert [line.split()[0] for line in report[:-2]] == list(stage_totals)
        for name, seconds in tracer.phase_totals().items():
            assert stage_totals[name] == pytest.approx(seconds, abs=1e-6)

    def test_artifact_digests(self):
        manifest = _sample_manifest()
        text = '{"kind": "cable-region"}'
        assert manifest["artifacts"]["denver"] == {
            "sha256": sha256_text(text), "bytes": len(text)
        }
        assert manifest["artifacts"]["quarantine"] == {"sha256": "ab" * 32}

    def test_fault_plan_digest_stability(self):
        plan = FaultPlan(seed=9, probe_loss=0.01)
        assert fault_plan_digest(plan) == fault_plan_digest(
            FaultPlan(seed=9, probe_loss=0.01)
        )
        assert fault_plan_digest(plan) != fault_plan_digest(
            FaultPlan(seed=10, probe_loss=0.01)
        )
        assert fault_plan_digest(None) is None

    def test_empty_run_is_still_valid(self):
        manifest = build_run_manifest(command="noop", seed=0)
        validate_artifact(manifest, kind="run-manifest")
        assert manifest["stages"] == []
        assert manifest["span_count"] == 0


class TestRoundTrip:
    def test_to_json_from_json_identity(self):
        manifest = _sample_manifest()
        assert run_manifest_from_json(run_manifest_to_json(manifest)) == manifest

    def test_write_is_atomic_and_newline_terminated(self, tmp_path):
        path = write_run_manifest(tmp_path / "m.json", _sample_manifest())
        assert Path(path).read_text().endswith("}\n")
        assert not list(tmp_path.glob("*.tmp*")), "no temp files left behind"

    def test_to_json_rejects_invalid_payload(self):
        manifest = _sample_manifest()
        manifest["span_count"] = "three"
        with pytest.raises(SchemaError):
            run_manifest_to_json(manifest)


class TestAdversarialMutation:
    @given(st.data())
    def test_mutated_manifest_raises_schema_error(self, data):
        payload = json.loads(run_manifest_to_json(_sample_manifest()))
        mutation = data.draw(st.sampled_from([
            "drop-key", "bad-kind", "bad-version", "stages-not-list",
            "stage-missing-field", "stage-bad-duration", "metrics-not-object",
            "counter-bad-type", "artifact-missing-sha", "seed-not-int",
            "environment-missing-field", "span-count-bool",
        ]))
        if mutation == "drop-key":
            del payload[data.draw(st.sampled_from([
                "environment", "invocation", "stages", "span_count",
                "metrics", "artifacts",
            ]))]
        elif mutation == "bad-kind":
            payload["kind"] = "run-manifests"
        elif mutation == "bad-version":
            payload["schema"] = 999
        elif mutation == "stages-not-list":
            payload["stages"] = {"collect": 0.5}
        elif mutation == "stage-missing-field":
            payload["stages"] = [{"name": "collect", "duration_s": 0.5}]
        elif mutation == "stage-bad-duration":
            payload["stages"] = [{
                "name": "collect", "duration_s": "fast", "spans": 1,
                "status": "ok",
            }]
        elif mutation == "metrics-not-object":
            payload["metrics"] = []
        elif mutation == "counter-bad-type":
            payload["metrics"]["counters"] = {"cache.lookup_hits": "four"}
        elif mutation == "artifact-missing-sha":
            payload["artifacts"] = {"denver": {"bytes": 10}}
        elif mutation == "seed-not-int":
            payload["invocation"]["seed"] = "three"
        elif mutation == "environment-missing-field":
            del payload["environment"]["python"]
        elif mutation == "span-count-bool":
            payload["span_count"] = True
        with pytest.raises(SchemaError, match=r"\$"):
            run_manifest_from_json(json.dumps(payload))

    # Built once: span durations vary run to run, and hypothesis needs
    # the draw bounds (len of the text) stable across examples.
    _FROZEN_TEXT = None

    @given(st.data())
    def test_truncated_manifest_raises_schema_error(self, data):
        if TestAdversarialMutation._FROZEN_TEXT is None:
            TestAdversarialMutation._FROZEN_TEXT = run_manifest_to_json(
                _sample_manifest()
            )
        text = TestAdversarialMutation._FROZEN_TEXT
        cut = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
        with pytest.raises(SchemaError):
            run_manifest_from_json(text[:cut])
