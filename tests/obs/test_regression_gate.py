"""The CI benchmark regression gate must trip on digest divergence,
workload drift, and manifest corruption — and pass a faithful re-run."""

import copy
import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
CHECKER = ROOT / "benchmarks" / "perf" / "check_regression.py"
BASELINE = ROOT / "benchmarks" / "perf" / "BENCH_BASELINE.json"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE.read_text())


@pytest.fixture()
def current(baseline):
    return copy.deepcopy(baseline)


class TestGate:
    def test_identical_run_passes(self, gate, baseline, current):
        assert gate.evaluate(current, baseline) == []

    def test_committed_baseline_manifests_are_schema_valid(
        self, gate, baseline
    ):
        for mode in ("baseline", "optimized"):
            manifest = baseline["inference"][mode]["manifest"]
            assert gate._validate_manifest(manifest, mode) == []

    def test_payload_without_baseline_mode_passes(
        self, gate, baseline, current
    ):
        # bench_pipeline.py no longer runs the memo-disabled mode; its
        # payloads gate against baselines that still carry it.
        for key in ("baseline", "speedup", "results_identical"):
            del current["inference"][key]
        assert gate.evaluate(current, baseline) == []

    def test_baseline_digest_drift_trips(self, gate, baseline, current):
        drifted = "1" * 64
        current["inference"]["baseline"]["digest"] = drifted
        current["inference"]["optimized"]["digest"] = drifted
        failures = gate.evaluate(current, baseline)
        assert any("drifted" in f for f in failures), failures

    def test_workload_drift_trips(self, gate, baseline, current):
        current["inference"]["optimized"]["workload"]["traces"] += 1
        failures = gate.evaluate(current, baseline)
        assert any("workload" in f for f in failures), failures

    def test_corrupt_manifest_trips(self, gate, baseline, current):
        del current["inference"]["optimized"]["manifest"]["stages"]
        failures = gate.evaluate(current, baseline)
        assert any("schema validation" in f for f in failures), failures

    def test_missing_manifest_trips(self, gate, baseline, current):
        current["inference"]["baseline"].pop("manifest")
        failures = gate.evaluate(current, baseline)
        assert any("missing" in f for f in failures), failures

    def test_empty_payload_fails_loudly(self, gate, baseline):
        assert gate.evaluate({}, baseline) == [
            "current payload lacks inference digests; wrong file?"
        ]


class TestColumnarGate:
    def test_missing_columnar_section_fails_loudly(
        self, gate, baseline, current
    ):
        del current["columnar"]
        failures = gate.evaluate(current, baseline)
        assert any("columnar section" in f for f in failures), failures

    def test_oracle_divergence_trips(self, gate, baseline, current):
        current["columnar"]["columnar"]["digest"] = "0" * 64
        failures = gate.evaluate(current, baseline)
        assert any("object-graph oracle" in f for f in failures), failures

    def test_baseline_digest_drift_trips(self, gate, baseline, current):
        drifted = "1" * 64
        current["columnar"]["oracle"]["digest"] = drifted
        current["columnar"]["columnar"]["digest"] = drifted
        failures = gate.evaluate(current, baseline)
        assert any("drifted" in f for f in failures), failures

    def test_workload_drift_trips(self, gate, baseline, current):
        current["columnar"]["columnar"]["workload"]["traces"] += 1
        failures = gate.evaluate(current, baseline)
        assert any("workload" in f for f in failures), failures

    def test_smoke_payload_skips_the_speedup_floor(
        self, gate, baseline, current
    ):
        assert current["smoke"]
        current["columnar"]["speedup"] = 1.2
        assert gate.evaluate(current, baseline) == []

    def test_full_payload_enforces_the_speedup_floor(
        self, gate, baseline, current
    ):
        current["smoke"] = False
        current["columnar"]["speedup"] = 2.4
        failures = gate.evaluate(current, baseline)
        assert any("3.00x floor" in f for f in failures), failures

    def test_committed_full_payload_passes_against_itself(self, gate):
        payload = json.loads((ROOT / "BENCH_CURRENT.json").read_text())
        assert gate.evaluate(payload, payload) == []
        assert not payload["smoke"]
        assert payload["columnar"]["speedup"] >= 3.0

    def test_corrupt_columnar_manifest_trips(self, gate, baseline, current):
        del current["columnar"]["columnar"]["manifest"]["stages"]
        failures = gate.evaluate(current, baseline)
        assert any("schema validation" in f for f in failures), failures


class TestSupervisedMeasurementGate:
    def test_smoke_payload_without_measurement_skips_the_check(
        self, gate, baseline, current
    ):
        assert "measurement" not in current
        assert gate.evaluate(current, baseline) == []

    def test_corpus_divergence_trips(self, gate, baseline, current):
        current["measurement"] = {
            "corpus_digest_identical": False, "speedup": 1.8,
        }
        failures = gate.evaluate(current, baseline)
        assert any("diverged from the serial oracle" in f for f in failures)

    def test_subunity_supervised_speedup_trips(self, gate, baseline, current):
        current["measurement"] = {
            "corpus_digest_identical": True, "speedup": 0.9,
        }
        failures = gate.evaluate(current, baseline)
        assert any("1.5x floor" in f for f in failures), failures

    def test_speedup_between_the_old_and_new_floor_trips(
        self, gate, baseline, current
    ):
        # 1.4x beat the old 1.0x floor; the 1.5x floor catches the slide.
        current["measurement"] = {
            "corpus_digest_identical": True, "speedup": 1.4,
        }
        failures = gate.evaluate(current, baseline)
        assert any("1.5x floor" in f for f in failures), failures

    def test_speedup_at_the_floor_passes(self, gate, baseline, current):
        current["measurement"] = {
            "corpus_digest_identical": True,
            "speedup": gate.MIN_SUPERVISED_SPEEDUP,
        }
        assert gate.evaluate(current, baseline) == []

    def test_healthy_measurement_passes(self, gate, baseline, current):
        current["measurement"] = {
            "corpus_digest_identical": True, "speedup": 1.97,
        }
        assert gate.evaluate(current, baseline) == []
