"""Benchmark regression gate for CI.

Compares a freshly produced benchmark payload (``bench_pipeline.py
--smoke`` output) against the committed baseline
(``BENCH_BASELINE.json``) and fails when:

* the optimized digest differs from the committed baseline's (the
  seeded workload is deterministic, so this means an inference-visible
  behaviour change that must be re-baselined deliberately);
* the ``columnar`` section is missing, its columnar digest diverged
  from the object-graph oracle's (within the run or vs the committed
  baseline), or — for full (non-smoke) payloads — its speedup fell
  below ``--min-columnar-speedup`` (default 3.0) on the unpaced
  1000-CO workload;
* an embedded run manifest is missing or fails schema validation;
* a ``streaming`` section is present whose snapshot digest diverged
  from the batch pipeline's (streaming must be digest-identical, never
  approximate) — payloads without the section skip this check, so
  baselines committed before it existed still self-check;
* a ``measurement`` section is present (full-mode payloads only) whose
  supervised corpus diverged from the serial oracle, or whose
  supervised speedup fell below 1.5 — smoke payloads carry no
  measurement section and skip this check.

Independently, ``--bias-report PATH`` gates a committed (or freshly
generated) ``bias-report`` artifact from the measurement-bias lab:
schema validation, streaming parity, species-estimator relative error
within ``--max-species-error`` (default 0.35) of ground truth, and the
optimized VP placement beating its seeded random baseline on edge
recall.  With ``--bias-report`` alone, ``--current`` may be omitted.

Payloads written before the memo-disabled ``baseline`` inference mode
was retired still carry it; its manifest is validated when present.

Speedup is a *ratio* of two wall-clocks measured on the same machine in
the same run, so the gate is machine-independent; absolute wall times
are never compared.

Usage::

    python benchmarks/perf/check_regression.py \
        --current bench.json --baseline benchmarks/perf/BENCH_BASELINE.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Floor for the columnar path on the full unpaced 1000-CO workload.
DEFAULT_MIN_COLUMNAR_SPEEDUP = 3.0
#: Floor for supervised workers against serial on the paced workload;
#: committed payloads measured 1.76-1.97x at workers=4.
MIN_SUPERVISED_SPEEDUP = 1.5


def _validate_manifest(manifest: object, label: str) -> "list[str]":
    from repro.errors import SchemaError
    from repro.validate.schema import validate_artifact

    if not isinstance(manifest, dict):
        return [f"{label}: run manifest missing from benchmark payload"]
    try:
        validate_artifact(manifest, kind="run-manifest")
    except SchemaError as exc:
        return [f"{label}: run manifest failed schema validation: {exc}"]
    return []


def evaluate(
    current: "dict",
    baseline: "dict",
    min_columnar_speedup: float = DEFAULT_MIN_COLUMNAR_SPEEDUP,
) -> "list[str]":
    """Return a list of failure messages (empty means the gate passes)."""
    failures: "list[str]" = []
    cur = current.get("inference", {})
    base = baseline.get("inference", {})

    cur_opt_digest = cur.get("optimized", {}).get("digest")
    if not cur_opt_digest:
        return ["current payload lacks inference digests; wrong file?"]

    cur_workload = cur.get("optimized", {}).get("workload")
    base_workload = base.get("optimized", {}).get("workload")
    if cur_workload != base_workload:
        failures.append(
            "workloads differ between current run and committed baseline "
            f"({cur_workload!r} vs {base_workload!r}); digests are not "
            "comparable — re-baseline deliberately"
        )
    else:
        base_opt_digest = base.get("optimized", {}).get("digest")
        if base_opt_digest and cur_opt_digest != base_opt_digest:
            failures.append(
                "inferred-region digest drifted from the committed baseline: "
                f"{cur_opt_digest[:12]}… != {base_opt_digest[:12]}…; "
                "if the inference change is intentional, regenerate "
                "BENCH_BASELINE.json in the same commit"
            )

    for mode in ("baseline", "optimized"):
        if mode in cur:
            failures.extend(_validate_manifest(cur[mode].get("manifest"), f"current/{mode}"))

    failures.extend(_evaluate_columnar(
        current, baseline, min_columnar_speedup
    ))

    streaming = current.get("streaming")
    if streaming is not None and not streaming.get("digest_identical"):
        failures.append(
            "streaming snapshot diverged from the batch pipeline in the "
            "streaming section (must be digest-identical)"
        )

    measurement = current.get("measurement")
    if measurement is not None:
        if not measurement.get("corpus_digest_identical"):
            failures.append(
                "supervised (process-sharded) corpus diverged from the "
                "serial oracle in the measurement section"
            )
        sup_speedup = measurement.get("speedup")
        if not isinstance(sup_speedup, (int, float)) or sup_speedup < MIN_SUPERVISED_SPEEDUP:
            failures.append(
                f"supervised measurement speedup {sup_speedup!r} fell "
                f"below the {MIN_SUPERVISED_SPEEDUP:.1f}x floor (workers must "
                "beat serial on the paced workload)"
            )
    return failures


def _evaluate_columnar(
    current: "dict", baseline: "dict", min_columnar_speedup: float
) -> "list[str]":
    """Gate the columnar (vectorized 1000-CO) benchmark section."""
    failures: "list[str]" = []
    col = current.get("columnar")
    if not isinstance(col, dict):
        return ["current payload lacks a columnar section; wrong file?"]

    oracle_digest = col.get("oracle", {}).get("digest")
    col_digest = col.get("columnar", {}).get("digest")
    if not oracle_digest or not col_digest:
        return ["columnar section lacks digests; wrong file?"]
    if oracle_digest != col_digest:
        failures.append(
            "columnar path diverged from the object-graph oracle: "
            f"oracle digest {oracle_digest[:12]}… != "
            f"columnar digest {col_digest[:12]}…"
        )

    base_col = baseline.get("columnar", {})
    cur_workload = col.get("columnar", {}).get("workload")
    base_workload = base_col.get("columnar", {}).get("workload")
    if cur_workload != base_workload:
        failures.append(
            "columnar workloads differ between current run and committed "
            f"baseline ({cur_workload!r} vs {base_workload!r}); "
            "re-baseline deliberately"
        )
    else:
        base_digest = base_col.get("columnar", {}).get("digest")
        if base_digest and col_digest != base_digest:
            failures.append(
                "columnar inferred-region digest drifted from the "
                f"committed baseline: {col_digest[:12]}… != "
                f"{base_digest[:12]}…; if the inference change is "
                "intentional, regenerate the baseline in the same commit"
            )

    speedup = col.get("speedup")
    if not isinstance(speedup, (int, float)):
        failures.append("columnar section lacks a speedup figure")
    elif not current.get("smoke") and speedup < min_columnar_speedup:
        # The ≥3x floor is defined over the full unpaced 1000-CO
        # workload; the smoke corpus is far too small for the ratio to
        # be meaningful, so smoke payloads only gate digest identity.
        failures.append(
            f"columnar speedup {speedup:.2f}x fell below the "
            f"{min_columnar_speedup:.2f}x floor on the 1000-CO workload"
        )

    for mode in ("oracle", "columnar"):
        failures.extend(
            _validate_manifest(
                col.get(mode, {}).get("manifest"), f"columnar/{mode}"
            )
        )
    return failures


DEFAULT_MAX_SPECIES_ERROR = 0.35


def evaluate_bias_report(
    report: "dict", max_species_error: float = DEFAULT_MAX_SPECIES_ERROR
) -> "list[str]":
    """Gate a ``bias-report`` artifact from the measurement-bias lab."""
    from repro.errors import SchemaError
    from repro.validate.schema import validate_artifact

    try:
        validate_artifact(report, kind="bias-report")
    except SchemaError as exc:
        return [f"bias report failed schema validation: {exc}"]

    failures: "list[str]" = []
    for label in ("cos", "links"):
        section = report["species"][label]
        error = section["relative_error"]
        if error > max_species_error:
            failures.append(
                f"species estimator for {label} missed ground truth by "
                f"{error:.1%} (chao1 {section['chao1']} vs truth "
                f"{section['truth']}; floor {max_species_error:.0%})"
            )
    placement = report["placement"]
    if placement["edge_recall"] <= placement["random_recall"]:
        failures.append(
            f"optimized VP placement ({placement['edge_recall']:.1%} edge "
            f"recall) failed to beat the seeded random baseline "
            f"({placement['random_recall']:.1%})"
        )
    if not report["streaming"]["parity"]:
        failures.append(
            "bias report records broken streaming parity: the incremental "
            "engine diverged from the batch pipeline"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", help="fresh benchmark JSON")
    parser.add_argument(
        "--baseline",
        default=str(pathlib.Path(__file__).resolve().parent / "BENCH_BASELINE.json"),
        help="committed baseline JSON",
    )
    parser.add_argument(
        "--min-columnar-speedup",
        type=float,
        default=DEFAULT_MIN_COLUMNAR_SPEEDUP,
        help="columnar-path speedup floor on full payloads (default 3.0)",
    )
    parser.add_argument(
        "--bias-report", metavar="PATH",
        help="also gate this bias-report artifact (schema, species "
             "accuracy, placement vs random, streaming parity)",
    )
    parser.add_argument(
        "--max-species-error",
        type=float,
        default=DEFAULT_MAX_SPECIES_ERROR,
        help="allowed species-estimator relative error vs ground truth "
             "(default 0.35)",
    )
    args = parser.parse_args()
    if not args.current and not args.bias_report:
        parser.error("need --current and/or --bias-report")

    failures: "list[str]" = []
    if args.current:
        current = json.loads(pathlib.Path(args.current).read_text())
        baseline = json.loads(pathlib.Path(args.baseline).read_text())
        failures.extend(evaluate(
            current,
            baseline,
            min_columnar_speedup=args.min_columnar_speedup,
        ))
    if args.bias_report:
        report = json.loads(pathlib.Path(args.bias_report).read_text())
        failures.extend(evaluate_bias_report(
            report, max_species_error=args.max_species_error
        ))
    if failures:
        print("benchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    parts = []
    if args.current:
        col = current.get("columnar", {})
        parts.append(
            f"columnar speedup {col.get('speedup', 0.0):.2f}x, digests stable"
        )
    if args.bias_report:
        species = report["species"]
        parts.append(
            f"bias report OK (species err cos {species['cos']['relative_error']:.1%} "
            f"/ links {species['links']['relative_error']:.1%}, placement "
            f"{report['placement']['edge_recall']:.1%} > random "
            f"{report['placement']['random_recall']:.1%}, parity "
            f"{report['streaming']['parity']})"
        )
    print("benchmark regression gate passed: " + "; ".join(parts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
