"""Deterministic sharding of a campaign stage's job list.

The supervised executor partitions a stage's ``(vantage point, target)``
jobs into *shards* — the unit of work a worker process executes, the
unit of retry after a crash, and the unit of quarantine when retries
run out.  Partitioning is a pure function of the job list: contiguous
chunks in job order, each with a **stable, content-addressed id**
(``<stage>/<index>-<digest>``), so

* the chaos plan's per-shard draws (crash, stall, retry jitter), which
  are keyed on the id, replay identically in every run of the stage;
* the replay, which walks the jobs in order, meets the shards in
  index order, and waits on a shard only when it reaches one of its
  jobs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

#: Default shards-per-worker over-partitioning factor.  More shards
#: than workers keeps the pool load-balanced and bounds the blast
#: radius of one crash to 1/(workers × factor) of the stage.
OVERPARTITION = 8


def _jobs_digest(jobs: "tuple[tuple[str, str], ...]") -> str:
    """Short content digest of a shard's job list."""
    blob = "|".join(f"{vp},{target}" for vp, target in jobs)
    return hashlib.blake2b(blob.encode(), digest_size=4).hexdigest()


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of a stage's jobs, with a stable identity."""

    shard_id: str
    stage: str
    index: int
    #: ``(vp_name, target)`` pairs, in original job order.
    jobs: "tuple[tuple[str, str], ...]"
    flow_id: int = 0


def shard_size_for(job_count: int, workers: int) -> int:
    """The default shard size: ``workers × OVERPARTITION`` shards."""
    target_shards = max(1, workers) * OVERPARTITION
    return max(1, math.ceil(job_count / target_shards))


def plan_shards(
    jobs: "list[tuple[str, str]]",
    stage: str,
    flow_id: int = 0,
    shard_size: "int | None" = None,
    workers: int = 4,
) -> "list[Shard]":
    """Partition *jobs* (``(vp_name, target)`` pairs) into shards.

    Deterministic: same jobs, same stage, same size → same shards with
    the same ids.  Job order is preserved within and across shards.
    """
    if not jobs:
        return []
    size = shard_size if shard_size and shard_size > 0 else (
        shard_size_for(len(jobs), workers)
    )
    shards: "list[Shard]" = []
    for index, start in enumerate(range(0, len(jobs), size)):
        chunk = tuple(
            (str(vp), str(target)) for vp, target in jobs[start:start + size]
        )
        shard_id = f"{stage}/{index:04d}-{_jobs_digest(chunk)}"
        shards.append(
            Shard(shard_id=shard_id, stage=stage, index=index, jobs=chunk,
                  flow_id=flow_id)
        )
    return shards
