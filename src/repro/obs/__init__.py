"""Observability layer: tracing, metrics, and run manifests.

Zero-dependency instrumentation threaded through the whole stack:

* :mod:`repro.obs.span` — hierarchical :class:`Span`/:class:`Tracer`
  with a context-manager API, monotonic timings, and
  seeded-deterministic span ids (two equal-seed runs produce
  structurally identical trees), and the ``--profile`` report read off
  that tree;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and histograms populated by the fault injector, the
  tracerouter, the validators, and the perf caches;
* :mod:`repro.obs.manifest` — the ``run-manifest`` artifact exported
  alongside every pipeline output: environment, seeds, fault-plan
  digest, per-stage span summaries, metric snapshot, and artifact
  digests, making any two runs diffable (and CI-gateable).
"""

from repro.obs.manifest import (
    MANIFEST_KIND,
    build_run_manifest,
    fault_plan_digest,
    run_manifest_from_json,
    run_manifest_to_json,
    sha256_bytes,
    sha256_text,
    write_run_manifest,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.span import Span, Tracer, phase_report

__all__ = [
    "MANIFEST_KIND",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "build_run_manifest",
    "fault_plan_digest",
    "phase_report",
    "run_manifest_from_json",
    "run_manifest_to_json",
    "sha256_bytes",
    "sha256_text",
    "write_run_manifest",
]
