"""JobStore: write-ahead journal, replay, snapshots, corruption fuzz."""

import json

import pytest

from repro.errors import ServiceError
from repro.service.spec import JobSpec
from repro.service.store import COMPACT_EVERY, JobStore


def _store(tmp_path, **kwargs):
    return JobStore.open(tmp_path / "state", **kwargs)


class TestLifecycle:
    def test_submit_dedup_and_replay(self, tmp_path):
        store = _store(tmp_path)
        spec = JobSpec(seed=1, targets=4)
        record, created = store.submit(spec)
        assert created and record.state == "queued"
        again, created_again = store.submit(spec)
        assert not created_again
        assert again.job_id == record.job_id
        assert again.dedup_count == 1
        store.close()

        replayed = _store(tmp_path)
        clone = replayed.jobs[record.job_id]
        assert clone.state == "queued"
        assert clone.dedup_count == 1
        assert clone.spec == spec
        replayed.close()

    def test_full_transition_history_replays_identically(self, tmp_path):
        store = _store(tmp_path)
        record, _ = store.submit(JobSpec(seed=2, targets=4))
        job_id = record.job_id
        store.append("start", job_id=job_id, owner="e1",
                     expires_at=100.0, fidelity="full")
        store.append("heartbeat", job_id=job_id, expires_at=200.0)
        store.append("retry", job_id=job_id, outcome="error",
                     error="boom", degraded=True, not_before=5.0,
                     fidelity="reduced")
        store.append("start", job_id=job_id, owner="e1",
                     expires_at=300.0, fidelity="reduced")
        store.append("done", job_id=job_id, degraded=False,
                     artifacts={"corpus.json": {"sha256": "ab", "bytes": 2}})
        before = store.jobs[job_id].as_dict()
        store.close()

        replayed = _store(tmp_path)
        assert replayed.jobs[job_id].as_dict() == before
        assert replayed.jobs[job_id].state == "done"
        assert replayed.jobs[job_id].attempts == 2
        replayed.close()

    def test_compaction_snapshot_plus_tail_replay(self, tmp_path):
        store = _store(tmp_path)
        first, _ = store.submit(JobSpec(seed=3, targets=4))
        store.compact()
        assert store.journal_path.read_text() == ""
        second, _ = store.submit(JobSpec(seed=4, targets=4))
        store.close()

        replayed = _store(tmp_path)
        assert set(replayed.jobs) == {first.job_id, second.job_id}
        replayed.close()

    def test_auto_compaction_after_threshold(self, tmp_path):
        store = _store(tmp_path)
        record, _ = store.submit(JobSpec(seed=5, targets=4))
        for _ in range(COMPACT_EVERY):
            store.append("heartbeat", job_id=record.job_id, expires_at=9.0)
        assert store.snapshot_path.exists()
        assert len(store.journal_path.read_text().splitlines()) < COMPACT_EVERY
        store.close()

    def test_release_requeues_with_backoff_deadline(self, tmp_path):
        store = _store(tmp_path)
        record, _ = store.submit(JobSpec(seed=6, targets=4))
        store.append("start", job_id=record.job_id, owner="e1",
                     expires_at=10.0, fidelity="full")
        store.append("release", job_id=record.job_id,
                     reason="lease expired", not_before=42.0)
        assert record.state == "queued"
        assert record.not_before == 42.0
        assert record.lease is None
        assert record.attempt_log[-1]["outcome"] == "interrupted"
        store.close()


class TestCorruptionFuzz:
    """The journal variants of the satellite-3 fuzz matrix."""

    def _seeded(self, tmp_path):
        store = _store(tmp_path)
        record, _ = store.submit(JobSpec(seed=7, targets=4))
        store.append("heartbeat", job_id=record.job_id, expires_at=1.0)
        store.close()
        return store.journal_path, record.job_id

    def test_torn_final_line_is_tolerated_and_repaired(self, tmp_path):
        journal, job_id = self._seeded(tmp_path)
        with open(journal, "a") as handle:
            handle.write('{"seq": 99, "op": "done", "job_id"')
        replayed = _store(tmp_path)
        assert replayed.jobs[job_id].state == "queued"
        # The repair truncated the torn bytes so the next append is clean.
        assert not journal.read_text().rstrip().endswith('"job_id"')
        replayed.close()

    def test_garbled_mid_file_line_raises_service_error(self, tmp_path):
        journal, _ = self._seeded(tmp_path)
        lines = journal.read_text().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServiceError, match="corrupt service journal"):
            _store(tmp_path)

    def test_non_object_line_raises_service_error(self, tmp_path):
        journal, _ = self._seeded(tmp_path)
        content = journal.read_text()
        journal.write_text('["not", "an", "entry"]\n' + content)
        with pytest.raises(ServiceError, match="corrupt service journal"):
            _store(tmp_path)

    def test_empty_journal_is_fine(self, tmp_path):
        journal, job_id = self._seeded(tmp_path)
        store = _store(tmp_path)
        store.compact()
        store.close()
        replayed = _store(tmp_path)
        assert job_id in replayed.jobs
        replayed.close()

    def test_corrupt_snapshot_raises_service_error(self, tmp_path):
        store = _store(tmp_path)
        store.submit(JobSpec(seed=8, targets=4))
        store.compact()
        store.close()
        text = store.snapshot_path.read_text()
        store.snapshot_path.write_text(text[: len(text) // 2])
        with pytest.raises(ServiceError, match="corrupt service snapshot"):
            _store(tmp_path)

    def test_schema_invalid_snapshot_raises_service_error(self, tmp_path):
        store = _store(tmp_path)
        store.submit(JobSpec(seed=9, targets=4))
        store.compact()
        store.close()
        payload = json.loads(store.snapshot_path.read_text())
        del payload["jobs"]
        store.snapshot_path.write_text(json.dumps(payload))
        with pytest.raises(ServiceError, match="corrupt service snapshot"):
            _store(tmp_path)


class TestAccessControl:
    def test_two_writers_share_the_journal(self, tmp_path):
        """Cooperating writers interleave appends at line granularity."""
        first = _store(tmp_path)
        second = _store(tmp_path)
        record, _ = first.submit(JobSpec(seed=30, targets=4))
        # The second writer sees the first's append after a refresh...
        second.refresh()
        assert record.job_id in second.jobs
        # ...and its own appends continue the shared seq numbering.
        entry = second.append("heartbeat", job_id=record.job_id,
                              expires_at=5.0)
        assert entry["seq"] == first.seq + 1
        first.refresh()
        assert first.seq == second.seq
        first.close()
        second.close()

    def test_duplicate_executor_id_is_refused(self, tmp_path):
        store = _store(tmp_path)
        store.acquire_executor_lock("e1")
        rival = _store(tmp_path)
        with pytest.raises(ServiceError, match="already running"):
            rival.acquire_executor_lock("e1")
        rival.acquire_executor_lock("e2")
        rival.close()
        store.close()
        # Released on close: the id is claimable again.
        reopened = _store(tmp_path)
        reopened.acquire_executor_lock("e1")
        reopened.close()

    def test_claim_is_compare_and_swap(self, tmp_path):
        """Two racing claims: exactly one wins, the loser gets None."""
        first = _store(tmp_path)
        second = _store(tmp_path)
        record, _ = first.submit(JobSpec(seed=31, targets=4))
        token = first.try_claim(record.job_id, "e1", expires_at=50.0, now=1.0)
        assert token is not None
        assert second.try_claim(record.job_id, "e2", expires_at=50.0,
                                now=1.0) is None
        first.close()
        second.close()

    def test_fencing_token_blocks_a_zombie_settle(self, tmp_path):
        """A reclaimed lease's old owner cannot settle over the new one."""
        zombie = _store(tmp_path, clock=lambda: 0.0)
        other = _store(tmp_path, clock=lambda: 0.0)
        record, _ = zombie.submit(JobSpec(seed=32, targets=4))
        job_id = record.job_id
        old_token = zombie.try_claim(job_id, "e1", expires_at=1.0, now=0.0)
        # The lease expires; another executor reclaims and re-claims.
        other.append("release", job_id=job_id, reason="lease expired",
                     not_before=0.0)
        new_token = other.try_claim(job_id, "e2", expires_at=99.0, now=2.0)
        assert new_token is not None and new_token != old_token
        # The zombie's heartbeat and settle are refused pre-journal.
        assert not zombie.try_heartbeat(job_id, "e1", old_token,
                                        expires_at=500.0)
        assert not zombie.settle(job_id, "e1", old_token, "done",
                                 degraded=False, artifacts={})
        # The live owner's settle goes through.
        assert other.settle(job_id, "e2", new_token, "done",
                            degraded=False, artifacts={})
        other.refresh()
        assert other.jobs[job_id].state == "done"
        zombie.close()
        other.close()

    def test_events_ring_survives_compaction(self, tmp_path):
        store = _store(tmp_path)
        record, _ = store.submit(JobSpec(seed=33, targets=4))
        store.append("start", job_id=record.job_id, owner="e1",
                     expires_at=10.0, fidelity="full")
        store.compact()
        store.close()
        replayed = _store(tmp_path)
        ops = [e["op"] for e in replayed.jobs[record.job_id].events]
        assert ops == ["submit", "start"]
        seqs = [e["seq"] for e in replayed.jobs[record.job_id].events]
        assert seqs == sorted(seqs)
        replayed.close()

    def test_readonly_open_coexists_and_refuses_writes(self, tmp_path):
        store = _store(tmp_path)
        record, _ = store.submit(JobSpec(seed=10, targets=4))
        reader = _store(tmp_path, readonly=True)
        assert record.job_id in reader.jobs
        with pytest.raises(ServiceError, match="read-only"):
            reader.append("heartbeat", job_id=record.job_id, expires_at=1.0)
        reader.close()
        store.close()

    def test_readonly_open_retries_when_compaction_outruns_it(
        self, tmp_path, monkeypatch
    ):
        # The reader loads the old snapshot; before it reads the journal
        # a writer submits X, compacts (X moves into the new snapshot)
        # and claims X.  The new journal's "start X" names a job the old
        # snapshot lacks, so that replay fails; the open must retry it.
        store = _store(tmp_path)
        store.submit(JobSpec(seed=20, targets=4))
        store.compact()
        claimed = []
        load_snapshot = JobStore._load_snapshot

        def racing_load_snapshot(self):
            seq = load_snapshot(self)
            if self.readonly and not claimed:
                record, _ = store.submit(JobSpec(seed=21, targets=4))
                store.compact()
                token = store.try_claim(record.job_id, "e1",
                                        expires_at=1e12, now=store.clock())
                assert token is not None
                claimed.append(record.job_id)
            return seq

        monkeypatch.setattr(JobStore, "_load_snapshot", racing_load_snapshot)
        reader = _store(tmp_path, readonly=True)
        assert reader.jobs[claimed[0]].state == "running"
        assert reader.seq == store.seq
        reader.close()
        store.close()

    def test_readonly_open_does_not_repair_a_torn_tail(self, tmp_path):
        store = _store(tmp_path)
        store.submit(JobSpec(seed=11, targets=4))
        store.close()
        with open(store.journal_path, "a") as handle:
            handle.write('{"torn')
        before = store.journal_path.read_bytes()
        reader = _store(tmp_path, readonly=True)
        reader.close()
        assert store.journal_path.read_bytes() == before
