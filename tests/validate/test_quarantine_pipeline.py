"""Guardrails end-to-end: pipeline quarantine and CLI diagnostics.

The pipeline runs here reuse the one-small-region restriction from the
fault-tolerance tests so a full §5 campaign stays cheap.
"""

import ipaddress
import json

import pytest

from repro.cli import main
from repro.faults import FaultPlan
from repro.infer.pipeline import CableInferencePipeline
from repro.io.export import region_to_json
from repro.validate import quarantine_report_from_json, quarantine_report_to_json

REGION = "saltlake"

STALE_PLAN = FaultPlan(seed=5, stale_rdns=0.25)


class _RegionPipeline(CableInferencePipeline):
    """The §5 pipeline restricted to one region's targets, for speed."""

    def slash24_targets(self):
        nets = self.isp.region_prefixes[REGION]
        return [
            t for t in super().slash24_targets()
            if any(ipaddress.ip_address(t) in n for n in nets)
        ]

    def rdns_targets(self):
        targets = []
        for address in super().rdns_targets():
            hostname = self.network.rdns.snapshot_lookup(address)
            parsed = self.parser.regional_co(hostname, self.isp.name)
            if parsed is not None and parsed[0] == REGION:
                targets.append(address)
        return targets


@pytest.fixture(scope="module")
def small_world():
    from repro.topology.internet import SimulatedInternet

    internet = SimulatedInternet(
        seed=23, include_telco=False, include_mobile=False
    )
    return internet, list(internet.build_standard_vps())


def _run(small_world, **kwargs):
    internet, fleet = small_world
    return _RegionPipeline(
        internet.network, internet.comcast, fleet, sweep_vps=4, **kwargs
    ).run()


class TestCleanSubstrate:
    def test_lenient_output_is_byte_identical_to_off(self, small_world):
        plain = _run(small_world)
        guarded = _run(small_world, validate="lenient")
        assert plain.quarantine is None
        assert guarded.quarantine is not None
        assert (
            region_to_json(guarded.regions[REGION])
            == region_to_json(plain.regions[REGION])
        )
        # Whatever the guard recorded on the clean substrate is advisory
        # noise the stages already dropped — nothing repaired.
        assert all(
            r.category in ("alias-tie", "p2p-tie", "cross-region")
            for r in guarded.quarantine.records
        )

    def test_strict_completes_on_clean_substrate(self, small_world):
        result = _run(small_world, validate="strict")
        assert REGION in result.regions
        assert result.quarantine.policy == "strict"


class TestStaleRdnsCampaign:
    def test_lenient_quarantines_conflicting_records(self, small_world):
        result = _run(small_world, validate="lenient", faults=STALE_PLAN)
        report = result.quarantine
        assert report, "stale rDNS must produce quarantined records"
        categories = {r.category for r in report.records}
        assert categories & {"alias-tie", "p2p-tie", "cross-region"}
        assert "quarantined" in report.summary()

    def test_report_roundtrips_through_artifact(self, small_world):
        result = _run(small_world, validate="lenient", faults=STALE_PLAN)
        text = quarantine_report_to_json(result.quarantine)
        loaded = quarantine_report_from_json(text)
        assert loaded.as_dict() == result.quarantine.as_dict()


# ----------------------------------------------------------------------
# CLI diagnostics (no campaign; artifact-directory and checkpoint paths)
# ----------------------------------------------------------------------
def _good_region_payload():
    return {
        "schema": 1, "kind": "cable-region", "name": "testville",
        "agg_cos": ["A"], "edge_cos": ["E1", "E2"], "agg_groups": [["A"]],
        "edges": [
            {"from": "A", "to": "E1", "observations": 3, "inferred": False},
            {"from": "A", "to": "E2", "observations": 2, "inferred": False},
        ],
        "stats": {"initial_edges": 2, "removed_edge_edges": 0,
                  "added_ring_edges": 0, "final_edges": 2},
    }


def _edge_to_edge_payload():
    payload = _good_region_payload()
    payload["edges"].append(
        {"from": "E1", "to": "E2", "observations": 2, "inferred": False}
    )
    payload["stats"]["final_edges"] = 3
    return payload


class TestCliArtifacts:
    def test_truncated_artifact_strict_single_line_diagnostic(
        self, tmp_path, capsys
    ):
        text = json.dumps(_good_region_payload(), indent=2)
        (tmp_path / "comcast-testville.json").write_text(text[: len(text) // 2])
        rc = main(["resilience", "--from-json", str(tmp_path),
                   "--validate", "strict"])
        assert rc == 3
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: comcast-testville.json: ")

    def test_wrong_type_artifact_names_json_path(self, tmp_path, capsys):
        payload = _good_region_payload()
        payload["edges"][0]["observations"] = "three"
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        rc = main(["resilience", "--from-json", str(tmp_path),
                   "--validate", "strict"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "$.edges[0].observations" in err

    def test_invariant_corrupt_artifact_strict_fails(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text(json.dumps(_edge_to_edge_payload()))
        rc = main(["resilience", "--from-json", str(tmp_path),
                   "--validate", "strict"])
        assert rc == 3
        assert "edge-to-edge" in capsys.readouterr().err

    def test_invariant_corrupt_artifact_lenient_repairs(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text(json.dumps(_edge_to_edge_payload()))
        rc = main(["resilience", "--from-json", str(tmp_path),
                   "--validate", "off"])
        assert rc == 0
        rc = main(["resilience", "--from-json", str(tmp_path),
                   "--validate", "lenient"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "validation: " in out
        assert "refine/edge-to-edge" in out

    def test_good_artifacts_pass_strict(self, tmp_path, capsys):
        (tmp_path / "good.json").write_text(json.dumps(_good_region_payload()))
        # Non-region artifacts in the same directory are skipped by kind.
        (tmp_path / "notes.json").write_text(json.dumps({"kind": "misc"}))
        rc = main(["resilience", "--from-json", str(tmp_path),
                   "--validate", "strict"])
        assert rc == 0
        assert "testville" in capsys.readouterr().out


class TestCliCheckpoint:
    def test_corrupt_checkpoint_strict_single_line_diagnostic(
        self, tmp_path, capsys
    ):
        path = tmp_path / "ckpt.json"
        header = {"kind": "campaign-checkpoint", "schema": 2}
        record = {
            "stages": {"slash24": {"complete": True, "done": [],
                                   "traces": [["10.0.0.1"]]}},
            "shards": {}, "health": {}, "injector": {},
        }
        path.write_text(f"{json.dumps(header)}\n{json.dumps(record)}\n")
        rc = main(["map-cable", "comcast", "--sweep-vps", "2",
                   "--resume", str(path), "--validate", "strict"])
        assert rc == 3
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: corrupt checkpoint")
        assert "record 1: $.stages.slash24.traces[0]" in err_lines[0]
