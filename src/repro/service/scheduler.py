"""Scheduling policy: who runs next, at what fidelity, who gets in.

Three decisions, all deterministic given the store state and clock:

* **Admission** (:meth:`Scheduler.admission_error`): the queue is a
  bounded resource.  A submission that would push the live (non-
  terminal) job count past the limit is rejected with a reason — the
  service never grows without bound.  When the recent attempt history
  looks degraded (crashes, stalls, degraded campaigns), the effective
  limit *halves*: load shedding before failure, per the paper's own
  graceful-degradation posture.
* **Selection** (:meth:`Scheduler.next_runnable`): highest priority
  first, then submission order; jobs back off after failures and are
  skipped until ``not_before``.
* **Fidelity** (:meth:`Scheduler.retry_fidelity`): a job whose attempt
  came back degraded (or died) retries one step down the fidelity
  ladder when its spec opts in (``allow_degraded``) — finish the
  portfolio at reduced fidelity rather than fail it at full.

Retry backoff is exponential with **seeded jitter**: the factor comes
from :meth:`repro.faults.plan.FaultPlan.retry_jitter`, keyed on
``(job_id, attempt)``, so a chaos soak replays the identical retry
schedule run-to-run.
"""

from __future__ import annotations

from repro.errors import ServiceError
from repro.faults.plan import FaultPlan
from repro.service.spec import degrade
from repro.service.store import JobRecord, JobStore

#: How many of the most recent finished attempts feed the degradation
#: signal, and how many of them must have gone bad to trigger shedding.
DEGRADATION_WINDOW = 5
DEGRADATION_THRESHOLD = 3


class Scheduler:
    """Pure policy over a :class:`JobStore`; owns no state of its own."""

    def __init__(
        self,
        store: JobStore,
        queue_limit: int = 32,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
        jitter_seed: int = 0,
    ) -> None:
        if queue_limit < 1:
            raise ServiceError(f"queue_limit must be at least 1, got {queue_limit}")
        if max_attempts < 1:
            raise ServiceError(f"max_attempts must be at least 1, got {max_attempts}")
        self.store = store
        self.queue_limit = queue_limit
        self.max_attempts = max_attempts
        self.backoff_base_s = float(backoff_base_s)
        #: Jitter draws ride the same event-keyed RNG as every fault
        #: decision; a dedicated plan keeps the stream namespaced.
        self._jitter_plan = FaultPlan(seed=jitter_seed)

    # ------------------------------------------------------------------
    # Degradation signal
    # ------------------------------------------------------------------
    def recent_bad_attempts(self) -> int:
        """Bad outcomes among the last ``DEGRADATION_WINDOW`` attempts.

        An attempt is *bad* when it errored, was interrupted, or came
        back with a degraded campaign health — all signs the substrate
        (or this executor host) is struggling.
        """
        finished: "list[tuple[float, dict]]" = []
        for record in self.store.jobs.values():
            for attempt in record.attempt_log:
                if attempt["finished_at"] is not None:
                    finished.append((attempt["finished_at"], attempt))
        finished.sort(key=lambda item: item[0])
        window = [attempt for _, attempt in finished[-DEGRADATION_WINDOW:]]
        return sum(
            1 for attempt in window
            if attempt["outcome"] != "done" or attempt["degraded"]
        )

    def shedding(self) -> bool:
        """Whether admission control is currently shedding load."""
        return self.recent_bad_attempts() >= DEGRADATION_THRESHOLD

    def effective_queue_limit(self) -> int:
        if self.shedding():
            return max(1, self.queue_limit // 2)
        return self.queue_limit

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admission_error(self) -> "str | None":
        """The rejection reason for a new submission, or None to admit."""
        limit = self.effective_queue_limit()
        live = self.store.live_count()
        if live >= limit:
            if limit < self.queue_limit:
                return (
                    f"queue full ({live}/{limit}): shedding load, recent "
                    f"attempts degraded ({self.recent_bad_attempts()}/"
                    f"{DEGRADATION_WINDOW} bad)"
                )
            return f"queue full ({live}/{limit})"
        return None

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def next_runnable(self, now: float) -> "JobRecord | None":
        """The queued job to lease next, or None.

        Highest ``priority`` wins; ties break on submission order, so
        the schedule is stable across restarts.
        """
        candidates = [
            record for record in self.store.queued()
            if record.not_before <= now
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda r: (-r.spec.priority, r.submitted_seq),
        )

    # ------------------------------------------------------------------
    # Retry / fidelity policy
    # ------------------------------------------------------------------
    def backoff_s(self, job_id: str, attempt: int) -> float:
        """Seeded-jittered exponential backoff before retry *attempt*+1."""
        jitter = 0.5 + self._jitter_plan.retry_jitter(job_id, attempt)
        return self.backoff_base_s * (2 ** max(0, attempt - 1)) * jitter

    def exhausted(self, record: JobRecord) -> bool:
        return record.attempts >= self.max_attempts

    def retry_fidelity(self, record: JobRecord, degraded: bool) -> str:
        """The fidelity for the next attempt after a bad one.

        Degradation-aware: when the spec allows it, a degraded or
        failed attempt retries one step down the ladder — the service
        prefers a lower-fidelity map to no map at all.
        """
        if record.spec.allow_degraded and degraded:
            return degrade(record.fidelity)
        return record.fidelity
