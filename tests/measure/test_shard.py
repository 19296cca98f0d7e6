"""Deterministic sharding: stable ids, full coverage in job order."""

from repro.measure.shard import OVERPARTITION, plan_shards, shard_size_for

JOBS = [(f"vp{i % 3}", f"198.18.5.{i}") for i in range(100)]


class TestPlanning:
    def test_same_inputs_same_shards(self):
        first = plan_shards(JOBS, "s", shard_size=10)
        second = plan_shards(JOBS, "s", shard_size=10)
        assert [s.shard_id for s in first] == [s.shard_id for s in second]
        assert [s.jobs for s in first] == [s.jobs for s in second]

    def test_every_job_covered_exactly_once_in_order(self):
        shards = plan_shards(JOBS, "s", shard_size=7)
        flattened = [job for shard in shards for job in shard.jobs]
        assert flattened == JOBS

    def test_id_embeds_stage_index_and_content_digest(self):
        shard = plan_shards(JOBS, "slash24", shard_size=10)[3]
        assert shard.shard_id.startswith("slash24/0003-")
        # Different job content at the same index → different id.
        other = plan_shards(list(reversed(JOBS)), "slash24", shard_size=10)[3]
        assert other.shard_id != shard.shard_id

    def test_default_size_overpartitions_per_worker(self):
        shards = plan_shards(JOBS, "s", workers=4)
        # Blast radius of one crash: at most ceil(jobs / (workers ×
        # OVERPARTITION)) jobs ride on any single shard.
        size = shard_size_for(len(JOBS), workers=4)
        assert size == 4  # ceil(100 / (4 × OVERPARTITION))
        assert OVERPARTITION * 4 == 32
        assert len(shards[0].jobs) == size
        assert len(shards) == 25  # ceil(100 / 4): well above the pool width

    def test_empty_jobs_plan_nothing(self):
        assert plan_shards([], "s") == []
