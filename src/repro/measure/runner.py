"""Resilient campaign execution: retry, failover, checkpoint, degrade.

The measurement drivers used to assume a well-behaved fleet: every VP
survives the whole sweep and every probe either answers or is a clean
``*``.  The paper's campaigns had neither luxury (§6.1's hotspots
kicked the prober mid-sweep; §7.1.1's phones lost signal for hours).
:class:`CampaignRunner` is the execution layer that absorbs those
failures:

* **retry** — per-hop probe retries live in the
  :class:`~repro.measure.traceroute.Tracerouter`; the runner adds
  trace-level retries when a VP flaps;
* **failover** — when a VP dies, its remaining jobs are reassigned to
  deterministic surviving stand-ins;
* **checkpoint/resume** — completed traces are persisted periodically
  via :class:`~repro.io.checkpoint.CampaignCheckpoint`; a campaign
  resumed through :meth:`CampaignRunner.open` skips finished work and,
  because all fault decisions are keyed on event identity, converges
  on the same final corpus as an uninterrupted run;
* **graceful degradation** — when the surviving fleet falls below
  ``min_vps`` the campaign returns the partial corpus plus an honest
  :class:`CampaignHealth` report instead of raising.
"""

from __future__ import annotations

import pathlib
import signal
import threading
from dataclasses import dataclass, field, fields

from repro.errors import CampaignInterrupted, MeasurementError
from repro.faults.plan import FaultPlan
from repro.measure.traceroute import TraceResult, Tracerouter
from repro.measure.vantage import FleetView, VantagePoint
from repro.obs import MetricsRegistry, Tracer
from repro.perf.gcpause import gc_paused
from repro.validate.quarantine import QuarantineReport


@dataclass
class CampaignHealth:
    """What a campaign actually cost and what it lost.

    ``empty_traces`` counts traces that returned zero hops — work that
    the drivers used to discard silently, making coverage loss
    invisible.  ``degraded`` means the campaign ran out of fleet and
    returned a partial corpus.
    """

    probes_sent: int = 0
    probes_lost: int = 0
    probes_refused: int = 0
    probes_retried: int = 0
    backoff_ms_total: float = 0.0
    traces_run: int = 0
    empty_traces: int = 0
    vps_lost: "list[str]" = field(default_factory=list)
    vp_flap_retries: int = 0
    targets_reassigned: int = 0
    targets_skipped: int = 0
    resumed: bool = False
    interrupted: bool = False
    degraded: bool = False
    #: Supervised shard-executor accounting (all zero for in-process
    #: runners).  ``shards_poisoned`` shards exhausted their retries
    #: and were quarantined; their jobs show up in ``targets_skipped``.
    shards_planned: int = 0
    #: Always 0: checkpoints no longer park shard results to reuse.
    #: Kept because the pinned benchmark health artifacts carry it.
    shards_reused: int = 0
    shards_retried: int = 0
    shards_poisoned: int = 0
    workers_spawned: int = 0
    workers_crashed: int = 0
    workers_stalled: int = 0
    workers_slow: int = 0
    fault_stats: "dict[str, object]" = field(default_factory=dict)

    def as_dict(self) -> "dict[str, object]":
        payload = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        payload["backoff_ms_total"] = round(self.backoff_ms_total, 3)
        payload["vps_lost"] = list(self.vps_lost)
        payload["fault_stats"] = dict(self.fault_stats)
        return payload

    @classmethod
    def from_dict(cls, payload: "dict[str, object]") -> "CampaignHealth":
        health = cls()
        for key, value in payload.items():
            if hasattr(health, key):
                setattr(health, key, value)
        return health

    def publish_metrics(self, metrics, prefix: str = "campaign.") -> None:
        """Publish the health fields as ``campaign.*`` gauges.

        Numeric fields map one-to-one; booleans become 0/1 and the
        lost-VP list becomes its length, so every gauge is a scalar
        and the registry snapshot stays diffable.  Fault stats are
        published by :meth:`FaultStats.publish_metrics` instead.
        """
        for name, value in self.as_dict().items():
            if name == "fault_stats":
                continue
            if name == "vps_lost":
                metrics.set_gauge(f"{prefix}vps_lost", len(value))
            elif isinstance(value, bool):
                metrics.set_gauge(f"{prefix}{name}", int(value))
            else:
                metrics.set_gauge(f"{prefix}{name}", value)

    def summary(self) -> str:
        """One human line for CLI output and logs."""
        parts = [
            f"{self.traces_run} traces / {self.probes_sent} probes",
            f"{self.probes_lost} lost",
            f"{self.probes_retried} retried",
            f"{self.empty_traces} empty",
        ]
        if self.vps_lost:
            parts.append(f"{len(self.vps_lost)} VP(s) lost: "
                         f"{', '.join(self.vps_lost)}")
        if self.targets_reassigned:
            parts.append(f"{self.targets_reassigned} jobs reassigned")
        if self.targets_skipped:
            parts.append(f"{self.targets_skipped} jobs skipped")
        if self.workers_crashed or self.workers_stalled:
            parts.append(f"{self.workers_crashed} worker crash(es), "
                         f"{self.workers_stalled} stall(s)")
        if self.shards_retried:
            parts.append(f"{self.shards_retried} shard(s) retried")
        if self.shards_poisoned:
            parts.append(f"{self.shards_poisoned} shard(s) poisoned")
        if self.degraded:
            parts.append("DEGRADED")
        if self.interrupted:
            parts.append("interrupted (checkpoint saved)")
        return "; ".join(parts)


class CampaignRunner:
    """Drives (vantage point, target) jobs through a tracer, resiliently.

    One runner serves a whole campaign; call :meth:`run` once per stage
    with that stage's job list.  All resilience is off by default in
    the sense that with no fault injector attached, ``failover`` has
    nothing to do and the runner produces byte-identical output to the
    plain nested-loop sweep it replaced.
    """

    def __init__(
        self,
        tracer: Tracerouter,
        vps: "list[VantagePoint]",
        checkpoint=None,
        min_vps: int = 1,
        failover: bool = True,
        checkpoint_every: int = 2000,
        obs=None,
        metrics=None,
        quarantine: "QuarantineReport | None" = None,
    ) -> None:
        if min_vps < 1:
            raise MeasurementError(f"min_vps must be at least 1, got {min_vps}")
        if min_vps > len(vps):
            raise MeasurementError(
                f"min_vps {min_vps} exceeds the {len(vps)} vantage points "
                "the campaign probes from"
            )
        self.tracer = tracer
        self.fleet = FleetView(vps)
        self.checkpoint = checkpoint
        self.min_vps = min_vps
        self.failover = failover
        self.checkpoint_every = checkpoint_every
        #: Observability: a :class:`repro.obs.span.Tracer` that wraps
        #: every stage in a ``stage:<name>`` span, and a
        #: :class:`repro.obs.metrics.MetricsRegistry` refreshed at
        #: every health sync.  Recording never changes the traces.
        self.obs = obs if obs is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Coverage the campaign dropped on purpose (the supervisor's
        #: poison shards); the pipeline hands in its guard's report.
        self.quarantine = (
            quarantine if quarantine is not None
            else QuarantineReport(policy="lenient")
        )
        self.health = CampaignHealth()
        #: The health's cost counters as the checkpoint left them.
        self._restored_cost = (0,) * len(Tracerouter.COUNTERS)
        self.injector = tracer.network.faults
        if self.injector is not None:
            self.injector.register_fleet(self.fleet.names)
            # Resuming: VPs already dead in the restored injector state
            # stay dead in the fleet view.
            for name in self.fleet.names:
                if not self.injector.vp_alive(name):
                    self.fleet.mark_dead(name)

    # ------------------------------------------------------------------
    # Opening a campaign
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        tracer: Tracerouter,
        vps: "list[VantagePoint]",
        checkpoint_path=None,
        resume: bool = False,
        workers: int = 0,
        worker_spec=None,
        **options,
    ) -> "CampaignRunner":
        """Start a campaign, or resume one from *checkpoint_path*.

        The one place the resume policy lives: with *resume* set, a
        missing file starts fresh (the first run of a resumable
        campaign) and a corrupt or truncated one raises
        :class:`~repro.errors.CheckpointError` rather than silently
        restarting hours of probing.  A resumed runner restores the
        injector's per-VP state before the fleet registers (so dead
        VPs stay dead and dropout thresholds fire where the cut run
        left them) and keeps the saved health counters.

        *workers* counts worker processes: 0 probes in-process, any
        other count goes to the supervised runner, which speculates in
        that many workers built from *worker_spec* (and refuses a count
        below 1).
        *options* go to the runner's constructor.
        """
        from repro.io.checkpoint import CampaignCheckpoint

        if workers and worker_spec is None:
            raise MeasurementError(
                "workers need a worker_spec describing how spawned "
                "workers rebuild the substrate"
            )
        injector = tracer.network.faults
        plan = injector.plan if injector is not None else FaultPlan()
        if not workers and (plan.worker_crash or plan.worker_stall or plan.worker_slow):
            raise MeasurementError(
                "worker chaos (crash, stall, slow) needs supervised "
                "workers: set workers >= 1"
            )
        runner_cls = cls
        if workers:
            from repro.measure.supervisor import SupervisedCampaignRunner

            runner_cls = SupervisedCampaignRunner
            options.update(worker_spec=worker_spec, workers=workers)
        checkpoint = None
        resumed = False
        if checkpoint_path is not None:
            resumed = resume and pathlib.Path(checkpoint_path).exists()
            if resumed:
                checkpoint = CampaignCheckpoint.load(checkpoint_path)
                if injector is not None and checkpoint.injector_state:
                    injector.restore_state(checkpoint.injector_state)
            else:
                checkpoint = CampaignCheckpoint(checkpoint_path)
        runner = runner_cls(tracer, vps, checkpoint=checkpoint, **options)
        if resumed:
            runner.health = CampaignHealth.from_dict(checkpoint.health)
            runner._restored_cost = tuple(
                getattr(runner.health, name) for name in Tracerouter.COUNTERS
            )
            runner.health.resumed = True
            runner.health.interrupted = False
        return runner

    def _save_checkpoint(self, stage: str, traces, done, complete: bool) -> None:
        """Save the stage's *traces* and *done* job keys new since the last save."""
        if self.checkpoint is None:
            return
        self.checkpoint.record_stage(stage, traces, done, complete)
        self.checkpoint.health = self.health.as_dict()
        if self.injector is not None:
            self.checkpoint.injector_state = self.injector.state_dict()
        self.checkpoint.save()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _sync_health(self) -> None:
        """Refresh the health report from the tracer and the injector.

        Each cost counter is the value restored at open plus the
        tracer's total: the tracer counts this process only.
        """
        for name, restored in zip(Tracerouter.COUNTERS, self._restored_cost):
            setattr(self.health, name, restored + getattr(self.tracer, name))
        if self.injector is not None:
            self.health.fault_stats = self.injector.stats.as_dict()
        self.health.publish_metrics(self.metrics)
        self.tracer.publish_metrics(self.metrics)
        if self.injector is not None:
            self.injector.stats.publish_metrics(self.metrics)
        self.metrics.set_gauge("campaign.fleet_alive", self.fleet.alive_count())

    def _run_trace(self, vp: VantagePoint, target: str, flow_id: int) -> TraceResult:
        """One actual traceroute — the seam execution strategies override.

        The serial runner probes synchronously; the supervised runner
        substitutes a speculatively-computed trace (charging its cost
        record to this tracer) when one is available.
        """
        return self.tracer.trace(
            vp.host, target, flow_id=flow_id, src_address=vp.src_address
        )

    def _job_blocked(self, job_key: "tuple[str, str]") -> bool:
        """Whether *job_key* must be skipped outright (quarantined work).

        The serial runner blocks nothing; the supervised runner first
        waits for the job's shard to settle, then returns True for jobs
        belonging to a poisoned shard, which the stage loop then counts
        as skipped-and-degraded coverage loss.
        """
        return False

    def _execute_job(self, vp: VantagePoint, job_key, flow_id: int):
        """One traceroute from *vp*, with flap retries.

        Returns the trace, or None when the VP flapped through every
        attempt (the caller decides whether to fail over).
        """
        injector = self.injector
        for attempt in range(self.tracer.attempts):
            if injector is not None and injector.vp_flapped(
                vp.name, (*job_key, attempt)
            ):
                if attempt + 1 < self.tracer.attempts:
                    self.health.vp_flap_retries += 1
                continue
            before = self.tracer.probes_sent
            trace = self._run_trace(vp, job_key[1], flow_id)
            trace.vp_name = vp.name
            if injector is not None:
                alive = injector.vp_add_probes(
                    vp.name, self.tracer.probes_sent - before
                )
                if not alive:
                    # The VP dies *after* delivering this trace — the
                    # hotspot kicked us once the sweep was underway.
                    self.fleet.mark_dead(vp.name)
                    self.health.vps_lost.append(vp.name)
            return trace
        return None

    def run(
        self,
        jobs: "list[tuple[VantagePoint, str]]",
        stage: str = "campaign",
        flow_id: int = 0,
    ) -> "list[TraceResult]":
        """Execute a stage's jobs; returns its (possibly partial) traces.

        Jobs are ``(vantage point, target)`` pairs, executed in order.
        Already-checkpointed jobs are skipped on resume; a stage marked
        complete in the checkpoint is returned wholesale from disk.

        The whole stage runs inside a ``stage:<name>`` span recording
        job and trace counts; an interrupted stage leaves an ``error``
        span.

        SIGTERM interrupts the stage as Ctrl-C does, so a campaign
        stopped by ``timeout`` or a service manager saves its finished
        jobs.  The handler is installed only on the main thread
        (``signal.signal`` raises elsewhere) and only while SIGTERM is
        at its default: the campaign service installs its own drain
        handler.

        Automatic cyclic collection is paused while the stage runs: its
        traces are acyclic and outlive the stage, so a collection would
        rescan them all and free nothing.  Inside a campaign scope (a
        pipeline's run) the stage also freezes what it built before the
        collector comes back on; the scope's end unfreezes it
        (:mod:`repro.perf.gcpause`).
        """
        previous = None
        if threading.current_thread() is threading.main_thread():
            current = signal.getsignal(signal.SIGTERM)
            if current in (signal.SIG_DFL, signal.default_int_handler):
                previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            with gc_paused():
                with self.obs.span(f"stage:{stage}", jobs=len(jobs)) as span:
                    traces = self._run_stage(jobs, stage, flow_id)
                    span.attributes["traces"] = len(traces)
                    span.attributes["skipped"] = self.health.targets_skipped
                    return traces
        finally:
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)

    def _run_stage(
        self,
        jobs: "list[tuple[VantagePoint, str]]",
        stage: str,
        flow_id: int,
    ) -> "list[TraceResult]":
        done: "set[tuple[str, str]]" = set()
        traces: "list[TraceResult]" = []
        if self.checkpoint is not None:
            if self.checkpoint.stage_complete(stage):
                return self.checkpoint.stage_traces(stage)
            done = self.checkpoint.stage_done(stage)
            traces = self.checkpoint.stage_traces(stage)
        # Each save hands the checkpoint only what is new since the last.
        saved = len(traces)
        fresh: "list[tuple[str, str]]" = []
        since_save = 0
        try:
            for vp, target in jobs:
                job_key = (vp.name, target)
                if job_key in done:
                    continue
                ran, trace = self._run_job(vp, job_key, flow_id)
                # Only a finished job is done: one an interrupt cuts
                # short re-runs on resume.
                done.add(job_key)
                fresh.append(job_key)
                if not ran:
                    continue
                if trace is None:
                    self.health.targets_skipped += 1
                elif trace.hops:
                    traces.append(trace)
                else:
                    self.health.empty_traces += 1
                since_save += 1
                if since_save >= self.checkpoint_every:
                    self._sync_health()
                    # Handed over before the save, so an interrupt that
                    # lands inside it cannot record them twice.
                    unsaved = traces[saved:], fresh
                    saved, fresh, since_save = len(traces), [], 0
                    self._save_checkpoint(stage, *unsaved, complete=False)
        except KeyboardInterrupt:
            # Ctrl-C or SIGTERM: keep every finished job.
            self._sync_health()
            self.health.interrupted = True
            self._save_checkpoint(stage, traces[saved:], fresh, complete=False)
            raise CampaignInterrupted(
                "campaign interrupted "
                f"(checkpoint: {getattr(self.checkpoint, 'path', None)})"
            ) from None
        self._sync_health()
        self._save_checkpoint(stage, traces[saved:], fresh, complete=True)
        return traces

    def _run_job(self, vp: VantagePoint, job_key, flow_id: int):
        """One job with failover: ``(ran, trace)``.

        ``ran`` is False for a job skipped before probing (quarantined,
        or no VP left to run it); ``trace`` is None when it was skipped.
        """
        if self._job_blocked(job_key):
            self.health.targets_skipped += 1
            self.health.degraded = True
            return False, None
        executor = vp
        if not self.fleet.is_alive(vp.name):
            executor = self.fleet.stand_in(job_key) if self.failover else None
            if executor is not None:
                self.health.targets_reassigned += 1
        if executor is None or self.fleet.alive_count() < self.min_vps:
            self.health.targets_skipped += 1
            self.health.degraded = True
            return False, None
        trace = self._execute_job(executor, job_key, flow_id)
        if trace is None and self.failover:
            # The assigned VP flapped through every attempt; one
            # deterministic stand-in gets a chance before we skip.
            stand_in = self.fleet.stand_in((*job_key, "flap"))
            if stand_in is not None and stand_in.name != executor.name:
                self.health.targets_reassigned += 1
                trace = self._execute_job(stand_in, job_key, flow_id)
        return True, trace
