"""Mapping job specifications: what the campaign service executes.

A :class:`JobSpec` is the service's unit of demand: "map this ISP (or
this synthetic substrate) at this fidelity, with this fault/chaos
profile".  Specs are **content-addressed**: :func:`spec_hash` digests
the canonical JSON of every field that can change the produced
artifacts, so two submissions of the same work share one job, one
campaign checkpoint, and one artifact set — the dedupe that makes
"resubmit the whole portfolio after a crash" free.

Two pipelines are supported:

``toy``
    A traceroute campaign over the diamond substrate
    (:func:`repro.measure.substrates.toy_substrate`) exporting the
    trace corpus and campaign health.  Small enough for soak tests to
    run dozens of jobs; deterministic in (seed, targets, faults).
``map-cable``
    The full §5 cable pipeline against a simulated ISP, exporting the
    region topologies exactly as ``repro map-cable --json-dir`` does.

Fidelity is a named ladder (``full`` → ``reduced`` → ``minimal``); the
degradation-aware scheduler walks a job *down* the ladder after a
degraded attempt when the spec opts in via ``allow_degraded``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import MeasurementError, ServiceError
from repro.validate.schema import ARTIFACT_VERSIONS, parse_artifact, validate_artifact

#: The degradation ladder, highest fidelity first.  ``degrade`` steps
#: one level right; the last level has nowhere lower to go.
FIDELITY_LEVELS = ("full", "reduced", "minimal")

#: Pipelines the executor knows how to run.
PIPELINES = ("toy", "map-cable")


@dataclass(frozen=True)
class JobSpec:
    """One mapping job, content-addressed by its output-relevant fields.

    ``faults`` carries :class:`~repro.faults.plan.FaultPlan` keyword
    arguments (probe loss, worker chaos, ...); ``chaos`` carries
    *service-level* chaos — ``fail_attempts: N`` makes the first N
    attempts raise, exercising the retry/poison path deterministically.
    ``name`` and ``priority`` are submission metadata: they never enter
    the hash, so renaming a job still dedupes to the same work.
    """

    pipeline: str = "toy"
    seed: int = 0
    fidelity: str = "full"
    allow_degraded: bool = False
    workers: int = 0
    #: toy pipeline: probed target count and VP count.
    targets: int = 8
    hosts: int = 2
    #: map-cable pipeline: which ISP and how many sweep VPs.
    isp: str = "comcast"
    sweep_vps: int = 8
    faults: "dict[str, object]" = field(default_factory=dict)
    chaos: "dict[str, int]" = field(default_factory=dict)
    #: Corpus artifact format: ``json`` (a ``corpus.json`` trace list)
    #: or ``binary`` (a ``corpus.npz`` columnar container).
    corpus_format: str = "json"
    name: str = ""
    priority: int = 0

    def __post_init__(self) -> None:
        if self.pipeline not in PIPELINES:
            raise ServiceError(
                f"unknown pipeline {self.pipeline!r}; expected one of "
                f"{', '.join(PIPELINES)}"
            )
        if self.fidelity not in FIDELITY_LEVELS:
            raise ServiceError(
                f"unknown fidelity {self.fidelity!r}; expected one of "
                f"{', '.join(FIDELITY_LEVELS)}"
            )
        from dataclasses import fields as dc_fields

        from repro.faults.plan import FaultPlan

        known = {f.name for f in dc_fields(FaultPlan)}
        unknown = sorted(set(self.faults) - known)
        if unknown:
            raise ServiceError(
                f"unknown fault-plan field(s) {', '.join(unknown)}"
            )
        # Built once here so a plan that cannot be honoured is refused
        # at submission, not charged attempt after attempt.
        try:
            FaultPlan(**self.faults)
        except MeasurementError as exc:
            raise ServiceError(str(exc)) from None
        if self.corpus_format not in ("json", "binary"):
            raise ServiceError(
                f"unknown corpus format {self.corpus_format!r}; expected "
                "json or binary"
            )
        # Refused before the spec is hashed: a value the executor had to
        # change would give one piece of work two job ids.  A toy job
        # probes at most 200 addresses of the substrate's target /24.
        if self.hosts < 1:
            raise ServiceError(f"hosts must be at least 1, got {self.hosts}")
        if not 1 <= self.targets <= 200:
            raise ServiceError(f"targets {self.targets} is outside 1..200")
        if self.workers < 0:
            raise ServiceError(f"workers must be 0 or more, got {self.workers}")
        if self.sweep_vps < 1:
            raise ServiceError(f"sweep_vps must be at least 1, got {self.sweep_vps}")

    # ------------------------------------------------------------------
    def content_dict(self) -> "dict[str, object]":
        """The fields that determine the job's artifacts, canonically.

        Excludes ``name`` and ``priority`` (presentation/scheduling
        metadata) and the ``schema``/``kind`` envelope.
        """
        return {
            "pipeline": self.pipeline,
            "seed": self.seed,
            "fidelity": self.fidelity,
            "allow_degraded": self.allow_degraded,
            "workers": self.workers,
            "targets": self.targets,
            "hosts": self.hosts,
            "isp": self.isp,
            "sweep_vps": self.sweep_vps,
            "faults": dict(sorted(self.faults.items())),
            "chaos": dict(sorted(self.chaos.items())),
            "corpus_format": self.corpus_format,
        }

    def as_dict(self) -> "dict[str, object]":
        """The validated ``job-spec`` artifact payload."""
        payload = {
            "schema": ARTIFACT_VERSIONS["job-spec"],
            "kind": "job-spec",
            **self.content_dict(),
        }
        if self.name:
            payload["name"] = self.name
        if self.priority:
            payload["priority"] = self.priority
        return payload

    @classmethod
    def from_dict(cls, payload: "dict[str, object]") -> "JobSpec":
        validate_artifact(payload, kind="job-spec")
        return cls(
            pipeline=payload["pipeline"],
            seed=payload["seed"],
            fidelity=payload["fidelity"],
            allow_degraded=payload["allow_degraded"],
            workers=payload["workers"],
            targets=payload.get("targets", 8),
            hosts=payload.get("hosts", 2),
            isp=payload.get("isp", "comcast"),
            sweep_vps=payload.get("sweep_vps", 8),
            faults=dict(payload.get("faults", {})),
            chaos=dict(payload.get("chaos", {})),
            corpus_format=payload.get("corpus_format", "json"),
            name=payload.get("name", ""),
            priority=payload.get("priority", 0),
        )


def spec_hash(spec: JobSpec) -> str:
    """sha256 over the canonical content JSON — the dedupe key."""
    text = json.dumps(spec.content_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def job_id_for(spec: JobSpec) -> str:
    """The short, human-pasteable job id (hash prefix)."""
    return spec_hash(spec)[:12]


def job_spec_to_json(spec: JobSpec) -> str:
    """Serialize a spec as a validated ``job-spec`` artifact."""
    return json.dumps(spec.as_dict(), indent=2, sort_keys=True)


def job_spec_from_json(text: str) -> JobSpec:
    """Parse + schema-validate a ``job-spec`` artifact."""
    return JobSpec.from_dict(parse_artifact(text, kind="job-spec"))


def degrade(fidelity: str) -> str:
    """One step down the fidelity ladder (sticky at the bottom)."""
    index = FIDELITY_LEVELS.index(fidelity)
    return FIDELITY_LEVELS[min(index + 1, len(FIDELITY_LEVELS) - 1)]
