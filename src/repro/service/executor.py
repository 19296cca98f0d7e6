"""Job execution: one attempt of one job, through the campaign stack.

The executor is deliberately thin: it maps a :class:`JobSpec` plus a
fidelity level onto the existing measurement machinery — the toy
substrate through :meth:`~repro.measure.runner.CampaignRunner.open`,
or the full cable pipeline — and exports the resulting artifacts
atomically into a per-executor staging directory.  Everything that
makes execution resumable already exists one layer down: the campaign
checkpoint lives at ``jobs/<id>/checkpoint.json``, so an attempt
interrupted by a crash (or a reclaimed lease) resumes mid-campaign
instead of restarting, and the event-keyed fault plan guarantees the
resumed corpus converges on the uninterrupted one.  The one service
twist on the resume policy is that a corrupt checkpoint is discarded
and the attempt charged, rather than failing the job.

Both job kinds share one export path: every attempt writes its corpus,
a ``health.json`` (campaign-health artifact) and, when the campaign
quarantined anything, a validated ``quarantine.json`` the job record
links to.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import shutil
from dataclasses import dataclass, field

from repro.errors import CheckpointError, ServiceError
from repro.faults import FaultInjector, FaultPlan
from repro.io.atomic import atomic_write_text
from repro.io.checkpoint import trace_to_dict
from repro.obs import sha256_text
from repro.service.spec import JobSpec
from repro.validate.quarantine import quarantine_report_to_json

#: Fidelity → fraction of the spec's nominal workload that runs.
_FIDELITY_SCALE = {"full": 1.0, "reduced": 0.5, "minimal": 0.25}


@dataclass
class ExecutionResult:
    """What one successful attempt produced."""

    artifacts: "dict[str, dict]" = field(default_factory=dict)
    degraded: bool = False
    summary: str = ""


def _scaled(count: int, fidelity: str, floor: int = 1) -> int:
    return max(floor, int(count * _FIDELITY_SCALE[fidelity]))


@contextlib.contextmanager
def _discarding_corrupt_checkpoint(path: pathlib.Path):
    """Turn a corrupt job checkpoint into a discarded one.

    A corrupt checkpoint is attempt-local damage, not poison: it is
    removed so the retry restarts the campaign from zero, and the
    attempt is charged via :class:`ServiceError`.
    """
    try:
        yield
    except CheckpointError as exc:
        path.unlink(missing_ok=True)
        raise ServiceError(
            f"job checkpoint was corrupt and has been discarded: {exc}"
        ) from exc


class JobExecutor:
    """Executes job attempts into per-job artifact directories."""

    def __init__(self, jobs_dir: "str | pathlib.Path", obs=None,
                 metrics=None) -> None:
        self.jobs_dir = pathlib.Path(jobs_dir)
        self.obs = obs
        self.metrics = metrics

    # ------------------------------------------------------------------
    def execute(self, job_id: str, spec: JobSpec, fidelity: str,
                attempt: int, stage_dir: pathlib.Path) -> ExecutionResult:
        """Run one attempt; raises on failure (the service charges it).

        Artifact files land in *stage_dir*, a per-executor staging
        directory (the service promotes it under the append lock after
        checking its fencing token).  The campaign checkpoint stays in
        the shared job directory so a retry by *any* executor resumes
        mid-campaign.
        """
        fail_until = int(spec.chaos.get("fail_attempts", 0))
        if attempt <= fail_until:
            raise ServiceError(
                f"injected chaos failure (attempt {attempt}/{fail_until})"
            )
        job_dir = self.jobs_dir / job_id
        job_dir.mkdir(parents=True, exist_ok=True)
        # A previous abandoned attempt's leftovers must not leak into
        # this attempt's artifact set.
        shutil.rmtree(stage_dir, ignore_errors=True)
        stage_dir.mkdir(parents=True, exist_ok=True)
        if spec.pipeline == "toy":
            return self._execute_toy(spec, fidelity, job_dir, stage_dir)
        return self._execute_cable(spec, fidelity, job_dir, stage_dir)

    # ------------------------------------------------------------------
    def _write(self, job_dir: pathlib.Path, name: str, text: str,
               artifacts: "dict[str, dict]") -> None:
        atomic_write_text(job_dir / name, text)
        artifacts[name] = {"sha256": sha256_text(text), "bytes": len(text)}

    def _export_campaign(self, stage_dir: pathlib.Path, spec: JobSpec,
                         traces, health, quarantine,
                         artifacts: "dict[str, dict]") -> ExecutionResult:
        """Corpus and health always; quarantine when anything was dropped."""
        from repro.io.export import campaign_health_to_json

        self._write_corpus(stage_dir, spec, traces, artifacts)
        self._write(stage_dir, "health.json",
                    campaign_health_to_json(health), artifacts)
        if quarantine is not None and quarantine:
            self._write(stage_dir, "quarantine.json",
                        quarantine_report_to_json(quarantine), artifacts)
        return ExecutionResult(
            artifacts=artifacts,
            degraded=health.degraded,
            summary=health.summary(),
        )

    def _write_corpus(self, stage_dir: pathlib.Path, spec: JobSpec,
                      traces, artifacts: "dict[str, dict]") -> None:
        """Export the trace corpus in the spec's chosen format.

        ``json`` writes the legacy sorted-JSON trace list; ``binary``
        writes the columnar ``.npz`` container from
        :mod:`repro.corpus.binio`, digested over its raw bytes so the
        HTTP artifact endpoint verifies it the same way.
        """
        if spec.corpus_format == "binary":
            from repro.corpus.binio import save_corpus
            from repro.corpus.columnar import TraceCorpus
            from repro.obs import sha256_bytes

            path = stage_dir / "corpus.npz"
            save_corpus(path, TraceCorpus.from_traces(traces))
            data = path.read_bytes()
            artifacts["corpus.npz"] = {
                "sha256": sha256_bytes(data), "bytes": len(data),
            }
            return
        corpus = json.dumps(
            [trace_to_dict(trace) for trace in traces], sort_keys=True
        )
        self._write(stage_dir, "corpus.json", corpus, artifacts)

    def _execute_toy(self, spec: JobSpec, fidelity: str,
                     job_dir: pathlib.Path,
                     stage_dir: pathlib.Path) -> ExecutionResult:
        from repro.measure.runner import CampaignRunner
        from repro.measure.substrates import WorkerSpec, toy_substrate

        targets = _scaled(spec.targets, fidelity)
        tracer, vps = toy_substrate(hosts=spec.hosts)
        plan = FaultPlan(**spec.faults) if spec.faults else None
        if plan is not None and plan.active:
            tracer.network.attach_faults(FaultInjector(plan))
        options = {}
        if spec.workers:
            options["shard_size"] = max(1, targets // 2)
        checkpoint_path = job_dir / "checkpoint.json"
        with _discarding_corrupt_checkpoint(checkpoint_path):
            runner = CampaignRunner.open(
                tracer, list(vps.values()), checkpoint_path, resume=True,
                workers=spec.workers,
                worker_spec=WorkerSpec(
                    "repro.measure.substrates:toy_substrate",
                    {"hosts": spec.hosts},
                ),
                checkpoint_every=max(1, targets // 2),
                obs=self.obs, metrics=self.metrics, **options,
            )
        jobs = [
            (vp, f"198.18.5.{index}")
            for vp in vps.values()
            for index in range(1, targets + 1)
        ]
        traces = runner.run(jobs, stage="campaign")
        return self._export_campaign(
            stage_dir, spec, traces, runner.health,
            getattr(runner, "quarantine", None), {},
        )

    def _execute_cable(self, spec: JobSpec, fidelity: str,
                       job_dir: pathlib.Path,
                       stage_dir: pathlib.Path) -> ExecutionResult:
        from repro.infer.pipeline import CableInferencePipeline
        from repro.io.export import region_to_json
        from repro.measure.substrates import cable_campaign

        internet, fleet, worker_spec = cable_campaign(seed=spec.seed)
        isp = getattr(internet, spec.isp, None)
        if isp is None:
            raise ServiceError(f"unknown ISP {spec.isp!r}") from None
        plan = FaultPlan(**spec.faults) if spec.faults else None
        checkpoint_path = job_dir / "checkpoint.json"
        pipeline = CableInferencePipeline(
            internet.network, isp, fleet,
            sweep_vps=_scaled(spec.sweep_vps, fidelity, floor=2),
            faults=plan,
            checkpoint_path=checkpoint_path,
            resume=True,
            workers=spec.workers, worker_spec=worker_spec,
            trace_seed=spec.seed,
        )
        # The pipeline loads the checkpoint it resumes from; a damaged
        # one costs this attempt, not the job.
        with _discarding_corrupt_checkpoint(checkpoint_path):
            result = pipeline.run()
        artifacts: "dict[str, dict]" = {}
        for name, region in sorted(result.regions.items()):
            self._write(stage_dir, f"{spec.isp}-{name}.json",
                        region_to_json(region), artifacts)
        # The collected corpus ships alongside the inferred regions so
        # downstream consumers (diffing, the streaming incremental
        # engine's ingest_from_store) can replay the raw observations.
        return self._export_campaign(
            stage_dir, spec, result.traces, result.health, result.quarantine,
            artifacts,
        )
