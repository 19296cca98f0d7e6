"""CampaignService: retries, backpressure, degradation, drain, leases."""

import json
import time

import pytest

from repro.service import CampaignService, JobSpec
from repro.service.service import DRAIN_MARKER
from repro.service.spec import job_spec_to_json
from repro.validate.schema import parse_artifact


def _service(tmp_path, **kwargs):
    options = {
        "tick_s": 0.001, "backoff_base_s": 0.001, "lease_s": 5.0,
    }
    options.update(kwargs)
    return CampaignService(tmp_path / "state", **options)


def _toy(**kwargs):
    options = {"pipeline": "toy", "seed": 1, "targets": 4, "hosts": 2}
    options.update(kwargs)
    return JobSpec(**options)


class TestRetryAndPoison:
    def test_chaos_failure_retries_then_succeeds(self, tmp_path):
        service = _service(tmp_path)
        record, disposition = service.submit(_toy(chaos={"fail_attempts": 2}))
        assert disposition == "admitted"
        service.run(until_idle=True)
        final = service.store.jobs[record.job_id]
        assert final.state == "done"
        assert final.attempts == 3
        outcomes = [entry["outcome"] for entry in final.attempt_log]
        assert outcomes == ["error", "error", "done"]
        assert "corpus.json" in final.artifacts

    def test_poison_job_quarantined_with_validated_artifact(self, tmp_path):
        service = _service(tmp_path, max_attempts=2)
        record, _ = service.submit(_toy(chaos={"fail_attempts": 99}))
        service.run(until_idle=True)
        final = service.store.jobs[record.job_id]
        assert final.state == "failed"
        assert final.attempts == 2
        assert final.failure["reason"] == "attempt budget exhausted"
        assert final.failure["artifact"] == "failure.json"
        artifact_path = service.store.job_dir(record.job_id) / "failure.json"
        report = parse_artifact(
            artifact_path.read_text(), kind="quarantine-report"
        )
        assert report["records"][0]["category"] == "poison-job"
        assert report["records"][0]["subject"] == record.job_id
        # The digest in the record matches the artifact on disk.
        from repro.obs import sha256_text

        assert final.artifacts["failure.json"]["sha256"] == sha256_text(
            artifact_path.read_text()
        )

    def test_terminal_record_exported_and_valid(self, tmp_path):
        service = _service(tmp_path)
        record, _ = service.submit(_toy())
        service.run(until_idle=True)
        payload = parse_artifact(
            (service.store.job_dir(record.job_id) / "record.json").read_text(),
            kind="job-record",
        )
        assert payload["state"] == "done"

    def test_backoff_is_seeded_and_reproducible(self, tmp_path):
        first = _service(tmp_path, seed=3)
        second = CampaignService(tmp_path / "other", seed=3,
                                 tick_s=0.001, backoff_base_s=0.001)
        diverged = CampaignService(tmp_path / "diverged", seed=4,
                                   tick_s=0.001, backoff_base_s=0.001)
        delays = [s.scheduler.backoff_s("job-a", n) for s in (first, second)
                  for n in (1, 2, 3)]
        assert delays[:3] == delays[3:]
        assert delays[:3] != [
            diverged.scheduler.backoff_s("job-a", n) for n in (1, 2, 3)
        ]
        # Exponential shape survives the jitter (factor in [0.5, 1.5)).
        assert delays[1] > delays[0]
        for service in (first, second, diverged):
            service.store.close()


class TestAdmission:
    def test_queue_full_rejected_with_reason(self, tmp_path):
        service = _service(tmp_path, queue_limit=2)
        service.submit(_toy(seed=1))
        service.submit(_toy(seed=2))
        record, disposition = service.submit(_toy(seed=3))
        assert record is None
        assert "queue full (2/2)" in disposition
        assert len(service.store.rejected) == 1
        assert service.store.rejected[0]["reason"] == disposition
        service.store.close()

    def test_duplicate_submission_dedupes(self, tmp_path):
        service = _service(tmp_path)
        first, _ = service.submit(_toy(seed=7))
        second, disposition = service.submit(_toy(seed=7, name="renamed"))
        assert disposition == "deduped"
        assert second.job_id == first.job_id
        assert service.store.jobs[first.job_id].dedup_count == 1
        service.store.close()

    def test_shedding_halves_the_limit_after_bad_attempts(self, tmp_path):
        service = _service(tmp_path, queue_limit=4, max_attempts=1)
        for seed in range(3):
            service.submit(_toy(seed=seed, chaos={"fail_attempts": 99}))
        service.run(until_idle=True)
        assert service.scheduler.recent_bad_attempts() >= 3
        assert service.scheduler.shedding()
        assert service.scheduler.effective_queue_limit() == 2
        accepted = []
        for seed in range(10, 14):
            record, disposition = service.submit(_toy(seed=seed))
            accepted.append(record is not None)
        assert accepted == [True, True, False, False]
        _, reason = service.submit(_toy(seed=99))
        assert "shedding load" in reason

    def test_invalid_inbox_spec_rejected_not_fatal(self, tmp_path):
        service = _service(tmp_path)
        (service.store.inbox_dir / "bad.json").write_text("{not json")
        good = _toy(seed=5)
        (service.store.inbox_dir / "good.json").write_text(
            job_spec_to_json(good)
        )
        taken = service.ingest_inbox()
        assert taken == 2
        assert len(service.store.jobs) == 1
        assert any(
            "invalid job spec" in entry["reason"]
            for entry in service.store.rejected
        )
        assert not list(service.store.inbox_dir.glob("*.json"))
        service.store.close()


class TestDegradation:
    def test_degraded_attempts_walk_down_the_fidelity_ladder(self, tmp_path):
        service = _service(tmp_path, max_attempts=4)
        record, _ = service.submit(_toy(
            seed=5, targets=8, allow_degraded=True,
            faults={"vp_dropout": 2, "vp_dropout_after": 1},
        ))
        service.run(until_idle=True)
        final = service.store.jobs[record.job_id]
        assert final.state == "done"
        assert final.fidelity == "minimal"
        ladder = [entry["fidelity"] for entry in final.attempt_log]
        assert ladder == ["full", "reduced", "minimal"]
        assert all(entry["degraded"] for entry in final.attempt_log)

    def test_without_opt_in_degraded_result_ships_at_full(self, tmp_path):
        service = _service(tmp_path, max_attempts=4)
        record, _ = service.submit(_toy(
            seed=5, targets=8, allow_degraded=False,
            faults={"vp_dropout": 2, "vp_dropout_after": 1},
        ))
        service.run(until_idle=True)
        final = service.store.jobs[record.job_id]
        assert final.state == "done"
        assert final.attempts == 1
        assert final.fidelity == "full"
        assert final.attempt_log[0]["degraded"]


class TestSchedulingAndDrain:
    def test_priority_wins_then_submission_order(self, tmp_path):
        service = _service(tmp_path)
        low, _ = service.submit(_toy(seed=1))
        high, _ = service.submit(_toy(seed=2, priority=5))
        service.run(until_idle=True)
        jobs = service.store.jobs
        first_start = jobs[high.job_id].attempt_log[0]["started_at"]
        second_start = jobs[low.job_id].attempt_log[0]["started_at"]
        assert first_start <= second_start

    def test_drain_marker_stops_the_loop_without_admitting(self, tmp_path):
        service = _service(tmp_path)
        service.submit(_toy(seed=1))
        (service.state_dir / DRAIN_MARKER).touch()
        executed = service.run()
        assert executed == 0
        assert service.store.jobs  # nothing lost
        assert not (service.state_dir / DRAIN_MARKER).exists()
        # Flush happened: snapshot + obs exports on disk.
        assert (service.state_dir / "snapshot.json").exists()
        assert (service.state_dir / "service-metrics-executor.json").exists()
        assert (service.state_dir / "service-trace-executor.json").exists()
        # Only the per-executor pair: no shared export for peers to race on.
        assert not (service.state_dir / "service-metrics.json").exists()
        assert not (service.state_dir / "service-trace.json").exists()

    def test_max_jobs_bounds_the_loop(self, tmp_path):
        service = _service(tmp_path)
        service.submit(_toy(seed=1))
        service.submit(_toy(seed=2))
        assert service.run(max_jobs=1) == 1

    def test_metrics_and_spans_published(self, tmp_path):
        service = _service(tmp_path)
        record, _ = service.submit(_toy(seed=1, chaos={"fail_attempts": 1}))
        service.run(until_idle=True)
        metrics = json.loads(
            (service.state_dir / "service-metrics-executor.json").read_text()
        )
        counters = metrics["counters"]
        assert counters["service.jobs_submitted"] == 1
        assert counters["service.attempts"] == 2
        assert counters["service.retries"] == 1
        assert counters["service.jobs_done"] == 1
        assert metrics["gauges"]["service.queue_depth"] == 0
        spans = json.loads(
            (service.state_dir / "service-trace-executor.json").read_text()
        )["spans"]
        job_spans = [s for s in spans if s["name"] == f"job:{record.job_id}"]
        assert len(job_spans) == 2
        assert [s["attributes"]["outcome"] for s in job_spans] \
            == ["error", "done"]


class TestLeases:
    def test_own_stale_lease_reclaimed_on_restart(self, tmp_path):
        service = _service(tmp_path)
        record, _ = service.submit(_toy(seed=7))
        service.store.append(
            "start", job_id=record.job_id, owner="executor",
            expires_at=service.clock() + 1000, fidelity="full",
        )
        service.store.close()
        reborn = _service(tmp_path)
        revived = reborn.store.jobs[record.job_id]
        assert revived.state == "queued"
        assert revived.attempts == 1  # the killed attempt charged budget
        reborn.run(until_idle=True)
        assert reborn.store.jobs[record.job_id].state == "done"

    def test_foreign_lease_waits_for_expiry(self, tmp_path):
        service = _service(tmp_path)
        record, _ = service.submit(_toy(seed=8))
        service.store.append(
            "start", job_id=record.job_id, owner="other-host",
            expires_at=service.clock() + 10_000, fidelity="full",
        )
        service.store.close()
        reborn = _service(tmp_path)
        assert reborn.store.jobs[record.job_id].state == "running"
        reborn._reclaim_expired()
        assert reborn.store.jobs[record.job_id].state == "running"
        reborn.store.close()

    def test_expired_foreign_lease_reclaimed(self, tmp_path):
        service = _service(tmp_path)
        record, _ = service.submit(_toy(seed=9))
        service.store.append(
            "start", job_id=record.job_id, owner="other-host",
            expires_at=service.clock() - 1.0, fidelity="full",
        )
        service.store.close()
        reborn = _service(tmp_path)
        reborn.run(until_idle=True)
        final = reborn.store.jobs[record.job_id]
        assert final.state == "done"
        assert final.attempt_log[0]["outcome"] == "interrupted"

    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "supervised"])
    def test_an_interrupted_campaign_releases_its_lease(self, tmp_path, monkeypatch, workers):
        # The second signal's KeyboardInterrupt, landing inside a serial
        # probe or a supervised pump, reaches the service as
        # CampaignInterrupted: the lease goes back and the next attempt
        # resumes the checkpoint.
        from repro.measure import supervisor
        from repro.measure.runner import CampaignRunner

        service = _service(tmp_path)
        record, _ = service.submit(_toy(seed=3, targets=10, hosts=2, workers=workers))
        calls = []

        def interrupting(real):
            def wrapped(*args, **kwargs):
                calls.append(1)
                if len(calls) == 3:
                    raise KeyboardInterrupt
                return real(*args, **kwargs)
            return wrapped

        if workers:
            monkeypatch.setattr(supervisor, "_conn_wait", interrupting(supervisor._conn_wait))
        else:
            monkeypatch.setattr(CampaignRunner, "_run_trace", interrupting(CampaignRunner._run_trace))
        service.run(until_idle=True)
        final = service.store.jobs[record.job_id]
        assert final.state == "done"
        assert [entry["outcome"] for entry in final.attempt_log] == ["interrupted", "done"]

    def test_heartbeat_extends_the_lease_during_execution(self, tmp_path):
        service = _service(tmp_path, lease_s=0.05)
        record, _ = service.submit(_toy(seed=3, targets=30, hosts=3))
        execute = service.executor.execute

        def slow_execute(*args, **kwargs):
            # The toy job can finish inside the first heartbeat interval
            # (lease_s / 3); hold the attempt open until two heartbeats
            # have extended the lease, capped so a broken heartbeat
            # fails the assertion below instead of hanging.
            deadline = time.monotonic() + 5.0
            while (service.metrics.counter_value("service.heartbeats") < 2
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            return execute(*args, **kwargs)

        service.executor.execute = slow_execute
        service.run(until_idle=True)
        final = service.store.jobs[record.job_id]
        assert final.state == "done"
        heartbeats = service.metrics.counter_value("service.heartbeats")
        assert heartbeats >= 1


class TestPoisonShardLinkage:
    """Satellite 2: poison-shard quarantine rides into the job record."""

    def test_supervised_job_links_validated_quarantine_artifact(
        self, tmp_path
    ):
        service = _service(tmp_path)
        record, _ = service.submit(_toy(
            seed=3, targets=4, hosts=2, workers=2,
            faults={"worker_crash": 1.0},
        ))
        service.run(until_idle=True)
        final = service.store.jobs[record.job_id]
        # Every shard poisoned: the campaign still completes (degraded,
        # empty corpus) and the quarantine is exported and linked.
        assert final.state == "done"
        assert final.attempt_log[-1]["degraded"]
        assert "quarantine.json" in final.artifacts
        artifact_path = service.store.job_dir(record.job_id) \
            / "quarantine.json"
        report = parse_artifact(
            artifact_path.read_text(), kind="quarantine-report"
        )
        categories = {entry["category"] for entry in report["records"]}
        assert "poison-shard" in categories
        from repro.obs import sha256_text

        assert final.artifacts["quarantine.json"]["sha256"] \
            == sha256_text(artifact_path.read_text())
