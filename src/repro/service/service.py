"""The long-running campaign service: lease, execute, retry, drain.

:class:`CampaignService` ties the pieces together into one supervised
loop over a crash-safe :class:`~repro.service.store.JobStore`:

* **Submission** crosses the process boundary through the ``inbox/``
  spool: ``repro service submit`` atomically drops a validated
  ``job-spec`` file, the service ingests it under admission control
  (bounded queue, degradation-aware load shedding) and either admits,
  dedupes (content-addressed spec hash), or rejects-with-reason.
* **Leases**: an executing job carries a lease ``(owner, expires_at,
  token)`` acquired by compare-and-swap (:meth:`JobStore.try_claim`)
  and extended by a heartbeat thread while the attempt runs.  Any
  number of ``repro service run --executor-id X`` processes share one
  state directory: the store's per-append lock serializes their
  journal writes, the CAS claim guarantees each queued job goes to
  exactly one of them, and the **fencing token** makes a zombie — an
  executor whose lease expired and was reclaimed — unable to settle
  or extend the job out from under the new owner.  A per-executor-id
  lifetime flock (``executors/<id>.lock``) guarantees the restart
  invariant: when a new incarnation of ``X`` starts, the previous one
  is provably dead, so its leases are reclaimed immediately.
* **Retry** with seeded-jittered exponential backoff and a bounded
  attempt budget; a job that exhausts it is demoted to ``failed`` with
  a validated quarantine-report failure artifact.
* **Degradation-aware scheduling**: attempts whose
  :class:`~repro.measure.runner.CampaignHealth` comes back degraded
  retry one step down the fidelity ladder when the spec allows it, and
  a bad recent-attempt window halves the admission limit (shed load
  rather than fail hard).
* **Zombie-proof artifacts**: each attempt writes into a per-executor
  staging directory; promotion into the job directory and the ``done``
  journal append happen inside one locked transaction, gated on the
  fencing token — so two executors can never publish differing bytes
  for the same artifact name.
* **Graceful drain**: SIGINT/SIGTERM (or ``repro service drain``)
  stops admission, finishes or checkpoints the in-flight attempt,
  flushes journal + snapshot, and exits 0.  A second signal interrupts
  the in-flight campaign through the supervisor's graceful-shutdown
  path (checkpoint flushed, workers terminated) and still exits 0.

Every state transition publishes to the service's
:class:`~repro.obs.metrics.MetricsRegistry` and span tree.  Each
executor owns its registry, exported to ``service-metrics-<id>.json``
/ ``service-trace-<id>.json`` in the state directory at every flush
(``/metrics`` keys them by executor id).
"""

from __future__ import annotations

import pathlib
import shutil
import signal
import threading
import time

from repro.errors import (
    CampaignInterrupted,
    ReproError,
    ServiceError,
)
from repro.io.atomic import atomic_write_bytes, atomic_write_text
from repro.obs import MetricsRegistry, Tracer, sha256_bytes
from repro.service.executor import JobExecutor
from repro.service.scheduler import Scheduler
from repro.service.spec import JobSpec, job_spec_from_json
from repro.service.store import JobRecord, JobStore, job_record_to_json
from repro.validate.quarantine import QuarantineReport, quarantine_report_to_json

#: Drain marker dropped by ``repro service drain``.
DRAIN_MARKER = "drain"


class CampaignService:
    """One executor instance bound to one (possibly shared) state dir."""

    def __init__(
        self,
        state_dir: "str | pathlib.Path",
        executor_id: str = "executor",
        queue_limit: int = 32,
        max_attempts: int = 3,
        lease_s: float = 30.0,
        tick_s: float = 0.05,
        backoff_base_s: float = 0.05,
        seed: int = 0,
        clock=time.time,
    ) -> None:
        self.state_dir = pathlib.Path(state_dir)
        self.executor_id = executor_id
        self.lease_s = float(lease_s)
        self.tick_s = float(tick_s)
        self.clock = clock
        self.store = JobStore.open(self.state_dir, clock=clock)
        self.scheduler = Scheduler(
            self.store, queue_limit=queue_limit, max_attempts=max_attempts,
            backoff_base_s=backoff_base_s, jitter_seed=seed,
        )
        #: Two live processes with one executor id would both believe
        #: the other's leases are their own stale ones — refuse early.
        self.store.acquire_executor_lock(executor_id)
        self.obs = Tracer(seed=seed)
        self.metrics = MetricsRegistry()
        self.executor = JobExecutor(
            self.store.jobs_dir, obs=self.obs, metrics=self.metrics,
        )
        self._draining = False
        self._signals = 0
        #: Reclaim our own stale leases exactly once, at startup: a
        #: lease we hold mid-run belongs to the in-flight attempt.
        self._recover_own_leases()

    # ------------------------------------------------------------------
    # Lease recovery
    # ------------------------------------------------------------------
    def _recover_own_leases(self) -> None:
        """A restart reclaims this executor's leases immediately.

        The previous same-id incarnation is provably dead — it held
        ``executors/<id>.lock``, which we now hold — so there is no
        point waiting out the lease.  Foreign leases are left alone:
        their owners may be alive and mid-attempt.
        """
        with self.store.transact():
            now = self.clock()
            for record in list(self.store.running()):
                if record.lease is not None \
                        and record.lease["owner"] == self.executor_id:
                    backoff = self.scheduler.backoff_s(
                        record.job_id, record.attempts
                    )
                    self.store.append(
                        "release", job_id=record.job_id,
                        reason="executor restarted",
                        not_before=now + backoff,
                    )
                    self.metrics.inc("service.leases_reclaimed")

    def _reclaim_expired(self) -> None:
        """Requeue jobs whose lease expired — their executor is gone.

        Compare-and-swap per job: the expiry observed outside the lock
        is re-checked inside it, so a racing reclaim (or a heartbeat
        that landed in between) makes this a no-op rather than a double
        release.
        """
        now = self.clock()
        expired = [
            record.job_id for record in self.store.running()
            if record.lease_expired(now)
        ]
        for job_id in expired:
            with self.store.transact():
                current = self.store.jobs.get(job_id)
                if current is None or current.state != "running" \
                        or not current.lease_expired(self.clock()):
                    continue
                backoff = self.scheduler.backoff_s(job_id, current.attempts)
                self.store.append(
                    "release", job_id=job_id, reason="lease expired",
                    not_before=self.clock() + backoff,
                )
                self.metrics.inc("service.leases_reclaimed")

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> "tuple[JobRecord | None, str]":
        """Admit one spec; returns ``(record, disposition)``.

        Disposition is ``admitted``, ``deduped``, or a rejection
        reason.  Rejection never raises — backpressure is an answer,
        not an error.
        """
        error = self.scheduler.admission_error()
        if error is not None:
            self.store.reject(spec, error)
            self.metrics.inc("service.jobs_rejected")
            return None, error
        record, created = self.store.submit(spec)
        if created:
            self.metrics.inc("service.jobs_submitted")
            return record, "admitted"
        self.metrics.inc("service.jobs_deduped")
        return record, "deduped"

    def ingest_inbox(self) -> int:
        """Admit spooled submissions; returns how many files were taken.

        Ingestion is idempotent under crashes *and* concurrency: the
        journal write lands before the spool file is removed, a re-read
        of the same file dedupes by content hash, and a file another
        executor unlinked first is simply skipped.
        """
        taken = 0
        for path in sorted(self.store.inbox_dir.glob("*.json")):
            try:
                text = path.read_text()
            except FileNotFoundError:
                continue  # another executor ingested it first
            try:
                spec = job_spec_from_json(text)
            except ReproError as exc:
                self.store.append(
                    "reject", spec_hash=path.stem,
                    reason=f"invalid job spec: {exc}",
                )
                self.metrics.inc("service.jobs_rejected")
                path.unlink(missing_ok=True)
                taken += 1
                continue
            self.submit(spec)
            path.unlink(missing_ok=True)
            taken += 1
        return taken

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _heartbeat_loop(self, job_id: str, token: int,
                        stop: threading.Event,
                        lost: threading.Event) -> None:
        interval = max(0.01, self.lease_s / 3.0)
        while not stop.wait(interval):
            extended = self.store.try_heartbeat(
                job_id, self.executor_id, token,
                expires_at=self.clock() + self.lease_s,
            )
            if not extended:
                # Fenced out: the lease was reclaimed.  Stop extending;
                # the attempt's settle will discover the same and
                # abandon its staging output.
                lost.set()
                return
            self.metrics.inc("service.heartbeats")

    def _write_record(self, record: JobRecord) -> None:
        job_dir = self.store.job_dir(record.job_id)
        job_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(job_dir / "record.json", job_record_to_json(record))

    def _fail_job(self, record: JobRecord, reason: str,
                  error: "str | None" = None,
                  token: "int | None" = None) -> bool:
        """Demote a poison job to quarantined ``failed`` state.

        The failure artifact is a validated ``quarantine-report`` (the
        same artifact kind poison *shards* produce one layer down), so
        downstream tooling reads one quarantine format everywhere.
        Compare-and-swap: with a *token* the caller's lease must still
        hold; without one (the queued-budget sweep) the job must still
        be queued-and-exhausted under the lock.  Returns whether this
        executor performed the demotion.
        """
        job_id = record.job_id
        with self.store.transact():
            current = self.store.jobs.get(job_id)
            if current is None:
                return False
            if token is not None:
                if not self.store.lease_valid(job_id, self.executor_id,
                                              token):
                    return False
            elif current.state != "queued" \
                    or not self.scheduler.exhausted(current):
                return False
            report = QuarantineReport(policy="lenient")
            report.add(
                stage="service", category="poison-job", subject=job_id,
                detail=f"{reason}" + (f": {error}" if error else ""),
                dropped=True, count=1,
            )
            job_dir = self.store.job_dir(job_id)
            job_dir.mkdir(parents=True, exist_ok=True)
            data = quarantine_report_to_json(report).encode()
            atomic_write_bytes(job_dir / "failure.json", data)
            artifacts = dict(current.artifacts)
            artifacts["failure.json"] = {
                "sha256": sha256_bytes(data), "bytes": len(data),
            }
            self.store.append(
                "failed", job_id=job_id, reason=reason, error=error,
                artifact="failure.json", artifacts=artifacts,
            )
        self.metrics.inc("service.jobs_failed")
        self._write_record(self.store.jobs[job_id])
        return True

    def _abandon(self, job_id: str, stage_dir: pathlib.Path) -> str:
        """Our lease was fenced out mid-attempt: discard, don't settle.

        The staging directory is thrown away — the new owner's attempt
        is the one that publishes — and nothing is journaled: the
        reclaim already charged the budget via its ``release``.
        """
        shutil.rmtree(stage_dir, ignore_errors=True)
        self.metrics.inc("service.leases_lost")
        return "lease-lost"

    def _run_attempt(self, record: JobRecord) -> str:
        """Claim, execute, and settle one attempt; returns the outcome."""
        job_id = record.job_id
        fidelity = record.fidelity
        now = self.clock()
        token = self.store.try_claim(
            job_id, self.executor_id, expires_at=now + self.lease_s, now=now,
        )
        if token is None:
            # Another executor claimed it between our scheduling pass
            # and the CAS — not an error, just a lost race.
            self.metrics.inc("service.claims_lost")
            return "claim-lost"
        record = self.store.jobs[job_id]
        self.metrics.inc("service.attempts")
        attempt = record.attempts
        spec = record.spec
        stop = threading.Event()
        lost = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(job_id, token, stop, lost),
            daemon=True,
        )
        beat.start()
        stage_dir = self.store.job_dir(job_id) / f".staging-{self.executor_id}"
        outcome = "error"
        error_text = None
        degraded = False
        result = None
        try:
            with self.obs.span(f"job:{job_id}", attempt=attempt,
                               fidelity=fidelity) as span:
                try:
                    result = self.executor.execute(
                        job_id, spec, fidelity, attempt, stage_dir=stage_dir,
                    )
                    outcome = "done"
                    degraded = result.degraded
                except CampaignInterrupted as exc:
                    outcome = "interrupted"
                    error_text = str(exc)
                except ReproError as exc:
                    outcome = "error"
                    error_text = str(exc)
                span.attributes["outcome"] = outcome
        finally:
            stop.set()
            beat.join(timeout=5.0)
        now = self.clock()
        record = self.store.jobs.get(job_id, record)
        if outcome == "done":
            retry_down = (
                degraded
                and spec.allow_degraded
                and not self.scheduler.exhausted(record)
                and self.scheduler.retry_fidelity(record, True) != fidelity
            )
            if retry_down:
                # Degradation-aware: the campaign finished but lost
                # coverage; spend a retry on a lighter-weight attempt
                # instead of shipping the degraded map.
                shutil.rmtree(stage_dir, ignore_errors=True)
                settled = self.store.settle(
                    job_id, self.executor_id, token, "retry",
                    outcome="degraded", error=None, degraded=True,
                    not_before=now + self.scheduler.backoff_s(
                        job_id, record.attempts),
                    fidelity=self.scheduler.retry_fidelity(record, True),
                )
                if not settled:
                    return self._abandon(job_id, stage_dir)
                self.metrics.inc("service.retries")
                return "degraded-retry"
            # Promotion and the terminal append are one locked
            # transaction gated on the fencing token: a zombie can
            # never replace published bytes or double-finish the job.
            with self.store.transact():
                if not self.store.lease_valid(job_id, self.executor_id,
                                              token):
                    settled = False
                else:
                    self._promote(stage_dir, job_id, result.artifacts)
                    self.store.append(
                        "done", job_id=job_id, artifacts=result.artifacts,
                        degraded=degraded,
                    )
                    settled = True
            if not settled:
                return self._abandon(job_id, stage_dir)
            self.metrics.inc("service.jobs_done")
            self._write_record(self.store.jobs[job_id])
            return "done"
        if outcome == "interrupted":
            # Drain or supervisor shutdown: the campaign checkpoint is
            # flushed; give the lease back and let the next run resume.
            shutil.rmtree(stage_dir, ignore_errors=True)
            settled = self.store.settle(
                job_id, self.executor_id, token, "release",
                reason=error_text, not_before=now,
            )
            if not settled:
                return self._abandon(job_id, stage_dir)
            self.metrics.inc("service.interrupted_attempts")
            return "interrupted"
        shutil.rmtree(stage_dir, ignore_errors=True)
        if self.scheduler.exhausted(record):
            if self._fail_job(record, "attempt budget exhausted",
                              error=error_text, token=token):
                return "failed"
            return self._abandon(job_id, stage_dir)
        settled = self.store.settle(
            job_id, self.executor_id, token, "retry",
            outcome="error", error=error_text, degraded=True,
            not_before=now + self.scheduler.backoff_s(job_id, record.attempts),
            fidelity=self.scheduler.retry_fidelity(record, True),
        )
        if not settled:
            return self._abandon(job_id, stage_dir)
        self.metrics.inc("service.retries")
        return "retried"

    def _promote(self, stage_dir: pathlib.Path, job_id: str,
                 artifacts: "dict[str, dict]") -> None:
        """Move staged artifacts into the job dir (caller holds the lock)."""
        import os

        job_dir = self.store.job_dir(job_id)
        job_dir.mkdir(parents=True, exist_ok=True)
        for name in artifacts:
            staged = stage_dir / name
            if staged.exists():
                os.replace(staged, job_dir / name)
        shutil.rmtree(stage_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _publish_gauges(self) -> None:
        self.metrics.set_gauge("service.queue_depth",
                               len(self.store.queued()))
        self.metrics.set_gauge("service.running", len(self.store.running()))
        self.metrics.set_gauge("service.jobs_total", len(self.store.jobs))
        self.metrics.set_gauge("service.shedding",
                               int(self.scheduler.shedding()))

    def flush(self) -> None:
        """Compact the store and export observability snapshots.

        Exports land under per-executor names, which the HTTP
        ``/metrics`` endpoint merges.
        """
        self._publish_gauges()
        self.store.compact()
        atomic_write_text(
            self.state_dir / f"service-metrics-{self.executor_id}.json",
            self.metrics.to_json() + "\n",
        )
        atomic_write_text(
            self.state_dir / f"service-trace-{self.executor_id}.json",
            self.obs.to_json() + "\n",
        )

    def _drain_requested(self) -> bool:
        return self._draining or (self.state_dir / DRAIN_MARKER).exists()

    def _handle_signal(self, signum, frame) -> None:  # pragma: no cover
        self._signals += 1
        self._draining = True
        if self._signals >= 2:
            # Second signal: interrupt the in-flight campaign through
            # the supervisor's graceful-shutdown path (checkpoint
            # flushed, workers terminated).
            raise KeyboardInterrupt

    def _sweep_exhausted(self) -> None:
        """Fail queued jobs whose budget was eaten by interrupted attempts."""
        for record in list(self.store.queued()):
            if self.scheduler.exhausted(record):
                self._fail_job(
                    record, "attempt budget exhausted",
                    error="budget consumed by interrupted attempts",
                )

    def run(self, until_idle: bool = False,
            max_jobs: "int | None" = None) -> int:
        """The service loop; returns the number of attempts executed.

        ``until_idle`` exits once every job is terminal and the inbox
        is empty — the mode soak tests and CI drive.  With peers
        sharing the state directory that means *waiting out* jobs they
        are running (their leases expire if they die, so the wait
        always converges).  Without it the loop runs until drained by
        signal or marker.
        """
        installed = []
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                installed.append((signum, signal.getsignal(signum)))
                signal.signal(signum, self._handle_signal)
        executed = 0
        try:
            while True:
                self.store.refresh()
                if not self._drain_requested():
                    self.ingest_inbox()
                self._reclaim_expired()
                self._sweep_exhausted()
                self._publish_gauges()
                if self._drain_requested():
                    # Stop admitting; nothing is in flight (attempts
                    # run synchronously), so flush and exit cleanly.
                    break
                record = self.scheduler.next_runnable(self.clock())
                if record is None:
                    if until_idle:
                        if self.store.all_terminal() \
                                and not any(
                                    self.store.inbox_dir.glob("*.json")):
                            break
                        # Jobs are backing off, or a peer still runs
                        # some: wait — expiry-based reclaim guarantees
                        # progress even if that peer dies.
                        time.sleep(self.tick_s)
                        continue
                    time.sleep(self.tick_s)
                    continue
                try:
                    outcome = self._run_attempt(record)
                except KeyboardInterrupt:
                    # Second-signal hard interrupt that beat the
                    # executor's own handling: settle the lease so the
                    # next incarnation resumes immediately.
                    with self.store.transact():
                        current = self.store.jobs.get(record.job_id)
                        if current is not None \
                                and current.state == "running" \
                                and current.lease is not None \
                                and current.lease["owner"] \
                                == self.executor_id:
                            self.store.append(
                                "release", job_id=record.job_id,
                                reason="service interrupted",
                                not_before=self.clock(),
                            )
                    break
                if outcome != "claim-lost":
                    # A lost CAS race never reached the executor — it
                    # is a scheduling artifact, not an attempt.
                    executed += 1
                if max_jobs is not None and executed >= max_jobs:
                    break
        finally:
            for signum, handler in installed:
                signal.signal(signum, handler)
            (self.state_dir / DRAIN_MARKER).unlink(missing_ok=True)
            self.flush()
            self.store.close()
        return executed
