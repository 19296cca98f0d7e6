"""JobSpec: validation, content addressing, fidelity ladder."""

import pytest

from repro.errors import ServiceError
from repro.service.spec import (
    FIDELITY_LEVELS,
    JobSpec,
    degrade,
    job_id_for,
    job_spec_from_json,
    job_spec_to_json,
    spec_hash,
)


class TestValidation:
    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ServiceError, match="unknown pipeline"):
            JobSpec(pipeline="warp")

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ServiceError, match="unknown fidelity"):
            JobSpec(fidelity="ultra")

    def test_unknown_fault_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown fault-plan field"):
            JobSpec(faults={"probe_loss": 0.1, "gamma_rays": 1.0})

    @pytest.mark.parametrize("faults", [
        {"probe_loss": 1.5}, {"worker_crash": -0.1}, {"vp_dropout": -1},
    ])
    def test_a_plan_that_cannot_be_honoured_is_rejected(self, faults):
        # Refused at submission, not charged attempt after attempt.
        with pytest.raises(ServiceError, match="fault plan"):
            JobSpec(faults=faults)

    @pytest.mark.parametrize("fields, message", [
        (dict(hosts=0), "hosts must be at least 1, got 0"),
        (dict(targets=0), "targets 0 is outside 1..200"),
        (dict(targets=201), "targets 201 is outside 1..200"),
        (dict(workers=-1), "workers must be 0 or more, got -1"),
        (dict(sweep_vps=0), "sweep_vps must be at least 1, got 0"),
    ])
    def test_a_setting_the_executor_cannot_honour_is_rejected(self, fields, message):
        with pytest.raises(ServiceError, match=message.replace(".", r"\.")):
            JobSpec(**fields)

    @pytest.mark.parametrize("clamped, honoured", [
        (dict(hosts=0), dict(hosts=1)),
        (dict(targets=-5), dict(targets=1)),
        (dict(targets=5000), dict(targets=200)),
    ])
    def test_one_campaign_has_one_job_id(self, clamped, honoured):
        # The executor once ran both specs as the same campaign under
        # two job ids; now only the one it runs as written is accepted.
        assert job_id_for(JobSpec(pipeline="toy", **honoured))
        with pytest.raises(ServiceError):
            JobSpec(pipeline="toy", **clamped)

    def test_known_fault_fields_accepted(self):
        spec = JobSpec(faults={"probe_loss": 0.2, "worker_crash": 0.1})
        assert spec.faults["probe_loss"] == 0.2


class TestContentAddressing:
    def test_hash_stable_and_id_is_prefix(self):
        spec = JobSpec(seed=3, targets=12)
        assert spec_hash(spec) == spec_hash(JobSpec(seed=3, targets=12))
        assert job_id_for(spec) == spec_hash(spec)[:12]

    def test_name_and_priority_do_not_enter_the_hash(self):
        base = JobSpec(seed=5)
        renamed = JobSpec(seed=5, name="portfolio-a", priority=9)
        assert spec_hash(base) == spec_hash(renamed)

    def test_output_relevant_fields_change_the_hash(self):
        base = JobSpec(seed=5)
        assert spec_hash(base) != spec_hash(JobSpec(seed=6))
        assert spec_hash(base) != spec_hash(JobSpec(seed=5, fidelity="reduced"))
        assert spec_hash(base) != spec_hash(
            JobSpec(seed=5, faults={"probe_loss": 0.1})
        )

    def test_json_round_trip_preserves_hash_and_metadata(self):
        spec = JobSpec(
            pipeline="map-cable", seed=2, isp="charter", sweep_vps=6,
            faults={"probe_loss": 0.05}, chaos={"fail_attempts": 2},
            name="charter-map", priority=3,
        )
        clone = job_spec_from_json(job_spec_to_json(spec))
        assert clone == spec
        assert spec_hash(clone) == spec_hash(spec)

    def test_invalid_artifact_rejected(self):
        with pytest.raises(Exception, match="kind"):
            job_spec_from_json('{"schema": 1, "kind": "job-record"}')


class TestFidelityLadder:
    def test_degrade_walks_down_and_sticks_at_bottom(self):
        assert degrade("full") == "reduced"
        assert degrade("reduced") == "minimal"
        assert degrade("minimal") == "minimal"

    def test_ladder_order(self):
        assert FIDELITY_LEVELS == ("full", "reduced", "minimal")
