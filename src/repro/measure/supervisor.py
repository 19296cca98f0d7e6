"""Supervised process-sharded campaign execution.

:class:`SupervisedCampaignRunner` speculates a campaign stage in
**spawned worker processes** while the inherited serial loop replays
it, which is what preserves the byte-identical-to-serial corpus
guarantee:

1. **Shard** — the stage's pending jobs are partitioned by
   :func:`repro.measure.shard.plan_shards` into contiguous,
   content-addressed shards: the unit of work, of retry, and of
   quarantine.
2. **Supervise** — a pool of ``spawn``-context workers executes shards.
   Each worker rebuilds its own substrate from a picklable
   :class:`~repro.measure.substrates.WorkerSpec` (substrates are pure
   functions of seed and flags), probes its shard's jobs, heartbeats
   between jobs, and returns each serialized trace with its cost
   record: what the trace added to the tracer's counters and to the
   per-trace fault counts.  The supervisor
   enforces heartbeat liveness (a worker silent for longer than
   ``heartbeat_timeout`` plus one paced trace has stalled), kills and
   replaces workers that crash or stall, retries failed
   shards with exponential backoff on a fresh worker, and — after a
   shard exhausts ``max_shard_retries`` — poisons it: its jobs are
   quarantined, skipped, and reported as degraded coverage.
3. **Replay** — the serial stage loop drives the pool as a pump: on
   reaching a job whose shard has not settled it pumps until the shard
   is done or poisoned, then its ``_run_trace`` seam consumes the
   speculative trace and charges its cost, so checkpoints, health
   accounting, VP-death thresholds, and the final corpus match a
   serial run byte for byte.  VP death and the failover it causes
   depend on cross-VP ordering, so they are resolved entirely here: a
   job reassigned to a stand-in finds no speculative entry under the
   stand-in's key and probes synchronously on the canonical substrate.

Worker-level chaos (``worker_crash`` / ``worker_stall`` /
``worker_slow`` in the :class:`~repro.faults.plan.FaultPlan`) is drawn
inside the worker, keyed on ``(shard_id, attempt)`` — never on the
probe path — so a seeded chaos run is exactly reproducible and the
serial oracle's corpus is untouched by it.

The checkpoint holds only the replay's stage rows, so each trace is
written once.  A supervisor SIGKILLed mid-stage resumes from the
replay's last save, which trails the finished shards by at most
``checkpoint_every`` jobs plus the shards that finished out of order.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from multiprocessing.connection import wait as _conn_wait
from operator import attrgetter, sub

from repro.errors import MeasurementError
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.plan import FaultPlan
from repro.measure.runner import CampaignRunner
from repro.measure.shard import Shard, plan_shards
from repro.measure.substrates import WorkerSpec
from repro.measure.traceroute import (
    Tracerouter,
    TraceResult,
    trace_from_row,
    trace_to_row,
)
from repro.measure.vantage import VantagePoint
from repro.perf.gcpause import gc_paused

#: How long a stall-injected worker sleeps: effectively forever — the
#: supervisor's heartbeat timeout is what ends it.
_STALL_SLEEP_S = 3600.0
#: How long a freshly spawned worker gets to import + build its
#: substrate and send the ready handshake before being recycled.
_BOOT_TIMEOUT_S = 60.0
#: Supervisor poll tick (seconds) while waiting for worker messages.
_POLL_TICK_S = 0.05
#: Base of a failed shard's exponential retry backoff (seconds).
_RETRY_BACKOFF_S = 0.05
#: Shards queued per worker.  Depth 2 keeps a worker probing its next
#: shard while the supervisor ingests its last one; without it the two
#: sides ping-pong (worker idle during ingest, supervisor idle during
#: probing) and the pool runs no faster than serial.
_PREFETCH_DEPTH = 2
#: A worker's running totals, in cost-record order: the tracer's
#: counters, then the fault counts one trace can move.  A job's cost
#: record is the difference of the totals after and before its trace.
_tracer_totals = attrgetter(*Tracerouter.COUNTERS)
_fault_totals = attrgetter(*FaultStats.TRACE_COUNTS)
#: Where a cost record's tracer counts end and its fault counts begin.
_TRACER_COST = len(Tracerouter.COUNTERS)
#: What a recycled worker's failure charges: a (CampaignHealth field,
#: FaultStats field) pair.  A worker that fails to boot charges neither.
_CRASH = ("workers_crashed", "worker_crashes")
_STALL = ("workers_stalled", "worker_stalls")


def _die_hard() -> None:
    """Terminate this process without any Python-level cleanup."""
    sigkill = getattr(signal, "SIGKILL", None)
    if sigkill is not None:
        os.kill(os.getpid(), sigkill)
    os._exit(1)


def _run_shard(conn, tracer, vps, stats, plan, shard, attempt, heartbeat_interval):
    """Execute one shard's jobs; returns ``(results, slow)``.

    Results are ``(vp_name, target, trace_row, cost)`` tuples in job
    order — exactly the payload :meth:`SupervisedCampaignRunner._ingest`
    replays.
    """
    conn.send(("start", shard.shard_id, attempt))
    crash_at = stall_at = None
    slow = False
    if plan is not None:
        if plan.worker_crashed(shard.shard_id, attempt):
            crash_at = plan.failure_point(
                shard.shard_id, attempt, len(shard.jobs), kind="crash"
            )
        elif plan.worker_stalled(shard.shard_id, attempt):
            stall_at = plan.failure_point(
                shard.shard_id, attempt, len(shard.jobs), kind="stall"
            )
        elif plan.worker_slowed(shard.shard_id, attempt):
            slow = True
            time.sleep(plan.worker_slow_ms / 1000.0)
    results = []
    before = _tracer_totals(tracer) + _fault_totals(stats)
    last_heartbeat = time.monotonic()
    for index, (vp_name, target) in enumerate(shard.jobs):
        if crash_at is not None and index == crash_at:
            _die_hard()
        if stall_at is not None and index == stall_at:
            time.sleep(_STALL_SLEEP_S)
        vp = vps.get(vp_name)
        if vp is None:
            raise MeasurementError(
                f"worker substrate has no vantage point {vp_name!r}"
            )
        trace = tracer.trace(
            vp.host, target, flow_id=shard.flow_id, src_address=vp.src_address
        )
        trace.vp_name = vp_name
        after = _tracer_totals(tracer) + _fault_totals(stats)
        cost = tuple(map(sub, after, before))
        before = after
        results.append((vp_name, target, trace_to_row(trace), cost))
        now = time.monotonic()
        if now - last_heartbeat >= heartbeat_interval:
            conn.send(("hb", shard.shard_id, index + 1))
            last_heartbeat = now
    return results, slow


def _worker_main(conn, spec, plan_payload, tracer_config, heartbeat_interval):
    """Worker process entry point: build substrate, serve shards.

    Protocol (worker → supervisor): ``("ready",)`` once the substrate
    is built, ``("start", shard_id, attempt)`` when a shard begins
    executing (prefetched shards sit in the pipe until then),
    ``("hb", shard_id, jobs_done)`` between jobs,
    ``("done", shard_id, attempt, results, slow)`` per completed shard,
    ``("error", shard_id, attempt, message)`` when a shard raises.
    Supervisor → worker: ``("shard", Shard, attempt)`` and
    ``("stop",)``.  A worker whose supervisor is gone (a closed pipe on
    any send or receive) returns quietly.
    """
    tracer, vps = spec.build()
    tracer.max_ttl = tracer_config["max_ttl"]
    tracer.jitter_ms = tracer_config["jitter_ms"]
    tracer.attempts = tracer_config["attempts"]
    tracer.backoff_ms = tracer_config["backoff_ms"]
    tracer.pace_ms = tracer_config.get("pace_ms", 0.0)
    plan = None
    # Without a fault plan nothing moves the fault counts: every cost
    # record carries zeros for them.
    stats = FaultStats()
    if plan_payload is not None:
        plan = FaultPlan.from_dict(plan_payload)
        injector = FaultInjector(plan)
        tracer.network.attach_faults(injector)
        stats = injector.stats
    try:
        conn.send(("ready",))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            _, shard, attempt = message
            try:
                with gc_paused():
                    results, slow = _run_shard(
                        conn, tracer, vps, stats, plan, shard, attempt,
                        heartbeat_interval,
                    )
            except Exception as exc:  # noqa: BLE001 - reported to supervisor
                conn.send(
                    ("error", shard.shard_id, attempt,
                     f"{type(exc).__name__}: {exc}")
                )
                continue
            conn.send(("done", shard.shard_id, attempt, results, slow))
    except (BrokenPipeError, EOFError, OSError):
        # The supervisor is gone: nobody is left to report to.
        return


class _Worker:
    """Supervisor-side record of one spawned worker process."""

    __slots__ = (
        "process", "conn", "ready", "assigned", "active",
        "spawned_at", "last_heartbeat",
    )

    def __init__(self, process, conn, now: float) -> None:
        self.process = process
        self.conn = conn
        self.ready = False
        #: Shards sent to this worker, oldest first: the head is
        #: running (once its ``start`` arrives), the rest are
        #: prefetched and still sitting in the pipe.
        self.assigned: "list[tuple[Shard, int]]" = []
        #: shard_id the worker has confirmed it is executing.
        self.active: "str | None" = None
        self.spawned_at = now
        self.last_heartbeat = now

    def kill(self) -> None:
        try:
            self.process.terminate()
            self.process.join(timeout=5.0)
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass
        try:
            self.conn.close()
        except OSError:
            pass


class SupervisedCampaignRunner(CampaignRunner):
    """A :class:`CampaignRunner` speculating in supervised processes.

    Same ``run`` contract and checkpoints as the serial runner, same
    byte-identical corpus; adds crash tolerance (worker death between
    heartbeats loses at most one shard's progress), stall detection
    (heartbeat timeout), bounded retry-with-backoff on fresh workers,
    and poison-shard quarantine into the runner's ``quarantine``.
    *options* are the serial runner's (checkpoint, ``min_vps``, ...).
    """

    def __init__(
        self,
        tracer: Tracerouter,
        vps: "list[VantagePoint]",
        worker_spec: WorkerSpec,
        workers: int = 4,
        shard_size: "int | None" = None,
        max_shard_retries: int = 2,
        heartbeat_interval: float = 0.2,
        heartbeat_timeout: float = 2.0,
        **options,
    ) -> None:
        if workers < 1:
            raise MeasurementError(
                f"supervised workers must be at least 1, got {workers} "
                "(0 workers probes in-process)"
            )
        super().__init__(tracer, vps, **options)
        self.workers = workers
        #: (vp name, target, flow id) -> the worker's (trace, cost record).
        self._speculative: "dict[tuple[str, str, int], tuple[TraceResult, tuple]]" = {}
        self.worker_spec = worker_spec
        self.shard_size = shard_size
        self.max_shard_retries = max_shard_retries
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        #: Job keys belonging to poisoned shards — blocked during replay.
        self._poisoned: "set[tuple[str, str]]" = set()
        #: Job keys whose shard has not settled yet: the replay pumps
        #: the pool (``_pool``, the running stage's :meth:`_run_pool`)
        #: before it runs one.
        self._unsettled: "set[tuple[str, str]]" = set()
        self._pool = None

    # ------------------------------------------------------------------
    # Replay seams
    # ------------------------------------------------------------------
    def _job_blocked(self, job_key: "tuple[str, str]") -> bool:
        # The replay waits here for the job's shard: pump the pool
        # until it settles (done or poisoned).
        while job_key in self._unsettled:
            next(self._pool)
        return job_key in self._poisoned

    def _run_trace(self, vp: VantagePoint, target: str, flow_id: int) -> TraceResult:
        speculative = self._speculative.pop((vp.name, target, flow_id), None)
        if speculative is None:
            # Cache miss: a failover stand-in, or a job in no shard.
            # Runs synchronously on the canonical substrate, exactly as
            # the serial runner would.
            return super()._run_trace(vp, target, flow_id)
        trace, cost = speculative
        self.tracer.charge(cost[:_TRACER_COST])
        if self.injector is not None:
            self.injector.stats.charge(cost[_TRACER_COST:])
        return trace

    def run(self, jobs, stage="campaign", flow_id=0):
        shards = self._plan(jobs, stage, flow_id)
        if not shards:
            return super().run(jobs, stage=stage, flow_id=flow_id)
        self.health.shards_planned += len(shards)
        attempts: "dict[str, int]" = {}
        outcomes: "dict[str, str]" = {}
        for shard in shards:
            self._unsettled.update(shard.jobs)
        self._pool = self._run_pool(shards, attempts, outcomes)
        try:
            with self.obs.span(
                f"supervise:{stage}", shards=len(shards), workers=self.workers,
            ) as span:
                # The stage pumps the pool, with the collector paused.
                traces = super().run(jobs, stage=stage, flow_id=flow_id)
                # Every shard has settled; this runs the pool's epilogue.
                for _ in self._pool:
                    pass
                span.attributes["retried"] = self.health.shards_retried
                span.attributes["poisoned"] = self.health.shards_poisoned
        finally:
            # A stage that raised leaves the pool open: closing it
            # kills the workers.  Unconsumed entries (jobs that failed
            # over) must not leak into later stages.
            self._pool.close()
            self._pool = None
            self._unsettled.clear()
            self._speculative.clear()
            self._poisoned.clear()
        # Per-shard spans are created *after* the pool completes, in
        # shard-id order: completion order is scheduling-dependent, the
        # span tree must not be.
        for shard in sorted(shards, key=lambda s: s.shard_id):
            with self.obs.span(
                f"shard:{shard.shard_id}",
                jobs=len(shard.jobs),
                attempts=attempts.get(shard.shard_id, 0),
                outcome=outcomes.get(shard.shard_id, "unknown"),
            ):
                pass
        self.metrics.set_gauge("supervisor.workers", self.workers)
        self.metrics.inc("supervisor.shards_run", len(shards))
        self.metrics.inc(
            "supervisor.speculated_jobs",
            sum(
                len(s.jobs) for s in shards
                if outcomes.get(s.shard_id) == "done"
            ),
        )
        return traces

    # ------------------------------------------------------------------
    # Speculation: shard + supervise
    # ------------------------------------------------------------------
    def _plan(self, jobs, stage: str, flow_id: int) -> "list[Shard]":
        """The shards of the stage's jobs that the replay will run."""
        checkpoint = self.checkpoint
        if checkpoint is not None and checkpoint.stage_complete(stage):
            return []
        done = checkpoint.stage_done(stage) if checkpoint is not None else set()
        # Jobs on already-dead VPs fail over during replay; their
        # stand-ins run synchronously on the canonical tracer.
        job_pairs = [
            (vp.name, target) for vp, target in jobs
            if (vp.name, target) not in done and self.fleet.is_alive(vp.name)
        ]
        return plan_shards(
            job_pairs, stage, flow_id=flow_id, shard_size=self.shard_size,
            workers=self.workers,
        )

    def _ingest(self, shard: Shard, results) -> None:
        """Install one shard's worker results into the speculation table."""
        hops = 0
        for vp_name, target, row, cost in results:
            trace = trace_from_row(row)
            hops += len(trace.hops)
            self._speculative[(vp_name, target, shard.flow_id)] = (trace, cost)
        self._unsettled.difference_update(shard.jobs)
        # Shard-merge corpus accounting: how much trace volume each
        # worker round-trip contributed to the assembled corpus.
        self.metrics.inc("corpus.shard_traces", len(results))
        self.metrics.inc("corpus.shard_hops", hops)

    # ------------------------------------------------------------------
    # The supervisor loop
    # ------------------------------------------------------------------
    def _spawn(self, ctx, plan_payload, tracer_config, now: float) -> _Worker:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.worker_spec, plan_payload, tracer_config,
                  self.heartbeat_interval),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.health.workers_spawned += 1
        return _Worker(process, parent_conn, now)

    def _run_pool(self, pending_shards, attempts, outcomes):
        """The worker pool as a pump: a generator that yields whenever
        a shard settles (done or poisoned).

        Closing it early kills the workers.  A worker reports only
        between traces, so it has stalled once nothing is heard from it
        for ``heartbeat_timeout`` plus one paced trace.  Liveness is
        measured only while the pump runs: the replay's time between
        pumps is no worker's stall.
        """
        ctx = multiprocessing.get_context("spawn")
        plan_payload = (
            self.injector.plan.as_dict() if self.injector is not None else None
        )
        tracer_config = {
            "max_ttl": self.tracer.max_ttl,
            "jitter_ms": self.tracer.jitter_ms,
            "attempts": self.tracer.attempts,
            "backoff_ms": self.tracer.backoff_ms,
            "pace_ms": self.tracer.pace_ms,
        }
        by_id = {shard.shard_id: shard for shard in pending_shards}
        #: (shard, eligible_at) — shards awaiting (re)assignment.
        queue: "list[tuple[Shard, float]]" = [
            (shard, 0.0) for shard in pending_shards
        ]
        finished = 0
        workers: "list[_Worker]" = []
        #: Consecutive worker deaths before the ready handshake.  A
        #: substrate that cannot even build (bad WorkerSpec kwargs,
        #: import error in a spawned interpreter) would otherwise put
        #: the supervisor in an infinite spawn-die-respawn loop.
        boot_failures = 0
        max_boot_failures = max(3, self.workers * 3)
        stall_after = self.heartbeat_timeout + self.tracer.pace_ms / 1000.0

        #: Backoff jitter draws from the fault plan when one is attached
        #: (so a seeded chaos run replays the identical retry schedule)
        #: and from the default zero-fault plan otherwise.
        jitter_plan = (
            self.injector.plan if self.injector is not None else FaultPlan()
        )

        def fail_shard(shard: Shard, reason: str, now: float) -> None:
            nonlocal finished
            made = attempts[shard.shard_id]
            if made > self.max_shard_retries:
                self.health.shards_poisoned += 1
                self._poisoned.update(shard.jobs)
                self._unsettled.difference_update(shard.jobs)
                outcomes[shard.shard_id] = "poisoned"
                self.quarantine.add(
                    stage="supervisor",
                    category="poison-shard",
                    subject=shard.shard_id,
                    detail=f"{reason} after {made} attempt(s)",
                    dropped=True,
                    count=len(shard.jobs),
                )
                finished += 1
            else:
                self.health.shards_retried += 1
                backoff = (
                    _RETRY_BACKOFF_S
                    * (2 ** (made - 1))
                    * (0.5 + jitter_plan.retry_jitter(shard.shard_id, made))
                )
                queue.append((shard, now + backoff))

        def recycle(worker: _Worker, reason: str, now: float, charge) -> None:
            """Kill and drop *worker*, charging its failure to *charge*:
            a ``(health field, fault-stat field)`` pair, or None."""
            nonlocal boot_failures
            worker.kill()
            workers.remove(worker)
            if charge is not None:
                health_field, stat_field = charge
                setattr(self.health, health_field,
                        getattr(self.health, health_field) + 1)
                if self.injector is not None:
                    stats = self.injector.stats
                    setattr(stats, stat_field, getattr(stats, stat_field) + 1)
            if not worker.ready:
                boot_failures += 1
                if boot_failures >= max_boot_failures:
                    raise MeasurementError(
                        f"supervised workers died {boot_failures} times "
                        f"before booting (last: {reason}); check the "
                        f"worker spec {self.worker_spec.factory!r}"
                    )
            # Blame the shard that was executing; if the worker died
            # before its first ``start`` arrived, blame the head of its
            # queue (so a worker that reliably dies on a shard cannot
            # respawn forever without anything being charged).
            blamed = worker.active
            if blamed is None and worker.assigned:
                blamed = worker.assigned[0][0].shard_id
            for shard, _ in worker.assigned:
                if shard.shard_id == blamed:
                    fail_shard(shard, reason, now)
                else:
                    # Prefetched but never started — it shares no blame
                    # for the death.  Refund the attempt and requeue.
                    attempts[shard.shard_id] -= 1
                    queue.append((shard, now))

        try:
            while finished < len(pending_shards):
                settled = finished
                now = time.monotonic()
                outstanding = len(pending_shards) - finished
                target = min(self.workers, outstanding)
                while sum(1 for w in workers if w.process.is_alive()) < target:
                    workers.append(
                        self._spawn(ctx, plan_payload, tracer_config, now)
                    )
                # Fill every worker to one shard before giving anyone a
                # second: the prefetch slot hides supervisor ingest
                # latency, it must not unbalance the pool.
                for depth in range(_PREFETCH_DEPTH):
                    for worker in list(workers):
                        if not worker.ready or len(worker.assigned) > depth:
                            continue
                        pick = None
                        for entry in queue:
                            if entry[1] <= now:
                                pick = entry
                                break
                        if pick is None:
                            continue
                        queue.remove(pick)
                        shard = pick[0]
                        attempts[shard.shard_id] = (
                            attempts.get(shard.shard_id, 0) + 1
                        )
                        attempt = attempts[shard.shard_id]
                        try:
                            worker.conn.send(("shard", shard, attempt))
                        except (BrokenPipeError, OSError):
                            # The worker died since the last poll; the
                            # shard never reached it.  Refund, requeue,
                            # and recycle (which charges whatever the
                            # worker *was* running).
                            attempts[shard.shard_id] -= 1
                            queue.append((shard, now))
                            recycle(worker, "worker crashed", now, _CRASH)
                            continue
                        if not worker.assigned:
                            worker.last_heartbeat = now
                        worker.assigned.append((shard, attempt))
                readable = _conn_wait(
                    [w.conn for w in workers], timeout=_POLL_TICK_S
                )
                now = time.monotonic()
                for worker in list(workers):
                    if worker.conn not in readable:
                        continue
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        # Pipe closed without a goodbye: the worker
                        # process died (crash fault, OOM kill, ...).
                        recycle(worker, "worker crashed", now, _CRASH)
                        continue
                    kind = message[0]
                    if kind == "ready":
                        worker.ready = True
                        worker.last_heartbeat = now
                        boot_failures = 0
                    elif kind == "hb":
                        worker.last_heartbeat = now
                    elif kind == "start":
                        _, shard_id, _ = message
                        worker.active = shard_id
                        worker.last_heartbeat = now
                    elif kind == "done":
                        _, shard_id, _, results, slow = message
                        shard = by_id[shard_id]
                        self._ingest(shard, results)
                        outcomes[shard_id] = "done"
                        finished += 1
                        worker.assigned = [
                            entry for entry in worker.assigned
                            if entry[0].shard_id != shard_id
                        ]
                        if worker.active == shard_id:
                            worker.active = None
                        if slow:
                            self.health.workers_slow += 1
                            if self.injector is not None:
                                self.injector.stats.worker_slowdowns += 1
                    elif kind == "error":
                        _, shard_id, _, detail = message
                        worker.assigned = [
                            entry for entry in worker.assigned
                            if entry[0].shard_id != shard_id
                        ]
                        if worker.active == shard_id:
                            worker.active = None
                        fail_shard(by_id[shard_id], detail, now)
                for worker in list(workers):
                    if not worker.process.is_alive():
                        # Death is normally seen as pipe EOF above; this
                        # catches a worker that died with the pipe
                        # already drained.
                        if worker.conn not in readable:
                            recycle(worker, "worker crashed", now, _CRASH)
                        continue
                    if not worker.ready:
                        if now - worker.spawned_at > _BOOT_TIMEOUT_S:
                            recycle(worker, "worker failed to boot", now, None)
                        continue
                    if not worker.assigned:
                        continue
                    if now - worker.last_heartbeat > stall_after:
                        recycle(worker, "heartbeat timeout", now, _STALL)
                if finished > settled:
                    paused = time.monotonic()
                    yield
                    # Time away from the pump counts toward no timeout.
                    away = time.monotonic() - paused
                    for worker in workers:
                        worker.spawned_at += away
                        worker.last_heartbeat += away
        finally:
            for worker in workers:
                if worker.ready and not worker.assigned:
                    try:
                        worker.conn.send(("stop",))
                    except (BrokenPipeError, OSError):
                        pass
            for worker in workers:
                worker.kill()
