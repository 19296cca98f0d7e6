"""The bias-report artifact: schema, round-trip, committed gates."""

import json
import pathlib

import pytest

from repro.bias import (
    bias_report_from_json,
    bias_report_to_json,
    build_bias_report,
)
from repro.errors import MeasurementError, SchemaError

COMMITTED = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "perf" / "BIAS_REPORT.json"
)


@pytest.fixture(scope="module")
def report(lab_result):
    return build_bias_report(lab_result)


class TestLabSettings:
    @pytest.mark.parametrize("setting, value, message", [
        ("targets_per_region", 0, "targets_per_region and placement_k must be at least 1, got 0 and 4"),
        ("placement_k", 0, "targets_per_region and placement_k must be at least 1, got 24 and 0"),
        ("rdns_fraction", 7, r"rdns_fraction must be in \[0, 1\], got 7"),
        ("rdns_fraction", -0.1, r"rdns_fraction must be in \[0, 1\], got -0.1"),
    ])
    def test_a_setting_the_lab_cannot_honour_is_refused(self, setting, value, message):
        from types import SimpleNamespace

        from repro.bias import BiasLab

        # Refused before the lab touches the internet beyond the ISP lookup.
        with pytest.raises(MeasurementError, match=message):
            BiasLab(SimpleNamespace(comcast=object()), **{setting: value})

    @pytest.mark.parametrize("vp_count", [0, 999])
    def test_vp_count_outside_the_vantage_points_outside_the_isp(self, bias_internet, vp_count):
        from repro.bias import BiasLab

        # The lab once probed from max(1, vp_count) VPs, sliced the fleet
        # silently, and reported the count asked for.
        with pytest.raises(MeasurementError, match=rf"vp_count {vp_count} is outside 1\.\.\d+, the vantage points outside comcast"):
            BiasLab(bias_internet, vp_count=vp_count)


class TestArtifact:
    def test_identity_fields(self, report, lab_result):
        assert report["kind"] == "bias-report"
        assert report["isp"] == "comcast"
        assert report["seed"] == lab_result.seed
        assert report["route_model"] == "valley-free"
        assert report["vp_count"] == 2
        assert report["targets"] == lab_result.targets

    def test_sections_match_result(self, report, lab_result):
        assert report["species"]["cos"] == lab_result.co_species.as_dict()
        assert report["species"]["links"] == \
            lab_result.link_species.as_dict()
        assert report["placement"] == lab_result.placement.as_dict()
        assert report["streaming"] == lab_result.stream.as_dict()

    def test_round_trip(self, report, lab_result):
        text = bias_report_to_json(lab_result)
        assert bias_report_from_json(text) == report
        # Canonical serialization: re-serializing is a fixed point.
        assert json.dumps(
            bias_report_from_json(text), indent=2, sort_keys=True
        ) == text

    def test_invalid_payload_rejected(self, report):
        from repro.validate.schema import validate_artifact

        broken = dict(report)
        del broken["species"]
        with pytest.raises(SchemaError):
            validate_artifact(broken, kind="bias-report")

    def test_metrics_mirror_the_report(self, bias_lab, report):
        gauges = bias_lab.metrics.snapshot()["gauges"]
        assert gauges["bias.species.co_chao1"] == pytest.approx(
            report["species"]["cos"]["chao1"], abs=1e-3
        )
        assert gauges["bias.placement.edge_recall"] == pytest.approx(
            report["placement"]["edge_recall"], abs=1e-5
        )
        assert gauges["bias.stream.parity"] == 1

    def test_spans_cover_every_stage(self, bias_lab):
        names = {span["name"] for span in bias_lab.obs.structural_dicts()}
        assert {"bias.lab", "bias.corpus", "bias.species",
                "bias.placement", "bias.stream"} <= names


class TestCommittedReport:
    """The committed seeded scenario must keep the PR's acceptance
    criteria: accurate estimators, placement above random, parity."""

    @pytest.fixture(scope="class")
    def committed(self):
        return bias_report_from_json(COMMITTED.read_text())

    def test_loads_and_validates(self, committed):
        assert committed["kind"] == "bias-report"
        assert committed["route_model"] == "valley-free"

    def test_species_within_tolerance(self, committed):
        for section in ("cos", "links"):
            species = committed["species"][section]
            assert species["relative_error"] <= 0.35
            assert species["chao1"] >= species["observed"]

    def test_placement_beats_random(self, committed):
        placement = committed["placement"]
        assert placement["edge_recall"] > placement["random_recall"]
        assert len(placement["chosen"]) == placement["k"]

    def test_streaming_parity(self, committed):
        assert committed["streaming"]["parity"] is True
        assert committed["streaming"]["epoch_changes"] >= 1
