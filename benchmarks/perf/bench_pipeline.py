"""Benchmark harness: phase-2 inference and supervised measurement.

Four sections, written to ``BENCH_CURRENT.json``:

* **inference** — the phase-2 pipeline (IP→CO mapping, adjacency
  extraction/pruning, refinement) over a large synthetic region corpus
  (60 COs, 20k traces by default) on the object-graph path
  (``optimized`` mode: module memos, shared :class:`InferenceCache`,
  positional follow-up index), run in its own subprocess.  It reports
  wall-clock, peak RSS (``ru_maxrss`` is process-monotonic, hence the
  isolation), and a digest of the inferred region graphs, which the
  regression gate pins against the committed baseline.

* **columnar** — the same phases over the unpaced 1000-CO workload
  (4 regions × 250 COs, 500k traces), comparing the object-graph
  oracle (``optimized`` mode) against the vectorized columnar path
  (:class:`~repro.corpus.columnar.TraceCorpus` +
  ``Ip2CoMapper.build_columnar`` / ``AdjacencyExtractor
  .extract_columnar``).  Corpus construction is untimed in both modes;
  the inferred-region digests must be identical — the columnar path is
  a pure representation change, not an approximation.

* **streaming** — the measurement-bias lab's incremental engine
  (:class:`~repro.bias.incremental.IncrementalCoGraph`) replaying the
  inference workload one trace at a time, against the batch stages as
  oracle.  The snapshot digest must equal the batch digest (streaming
  is a scheduling change, not an approximation); the section records
  both wall-clocks and streaming ingest throughput.

* **measurement** (full mode only) — a paced slice of the
  simulated-internet Comcast campaign run serially and under the
  process-sharded :class:`SupervisedCampaignRunner` with
  ``--workers 4``, recording wall-clock for each, the speedup, and
  that the trace corpora are byte-identical.  Pacing
  (``Tracerouter.pace_ms``) models the latency-bound regime real
  campaigns run in — every probe waits on an RTT — which is the regime
  sharded measurement exists for; an unpaced pure-CPU simulation would
  only measure host core count.

Usage::

    python benchmarks/perf/bench_pipeline.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

FULL_WORKLOAD = {"regions": 2, "cos_per_region": 30, "traces": 20000,
                 "followups": 1200, "seed": 2021}
SMOKE_WORKLOAD = {"regions": 2, "cos_per_region": 8, "traces": 1500,
                  "followups": 200, "seed": 2021}
#: Columnar-section workload: 4 × 250 = 1000 COs, unpaced.  20 AggCOs
#: per region keeps the synthetic address scheme's per-agg link count
#: inside one octet at this CO density.
COLUMNAR_WORKLOAD = {"regions": 4, "cos_per_region": 250,
                     "aggs_per_region": 20, "traces": 500000,
                     "followups": 8000, "seed": 2021}
COLUMNAR_SMOKE_WORKLOAD = {"regions": 2, "cos_per_region": 40,
                           "traces": 20000, "followups": 2000,
                           "seed": 2021}


def _region_digest(regions) -> str:
    """Order-independent digest of the inferred region graphs."""
    payload = {
        name: {
            "edges": sorted(
                (a, b, int(data.get("weight", 0)))
                for a, b, data in region.graph.edges(data=True)
            ),
            "aggs": sorted(region.agg_cos),
        }
        for name, region in regions.items()
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run_inference_mode(mode: str, workload: "dict") -> "dict":
    """One subprocess entry: run phase 2 over the synthetic corpus."""
    from repro.infer.adjacency import AdjacencyExtractor
    from repro.infer.ip2co import Ip2CoMapper
    from repro.infer.refine import RegionRefiner
    from repro.obs import build_run_manifest
    from repro.perf import InferenceCache, PhaseProfiler
    from repro.perf.cache import clear_module_memos
    from repro.perf.synthetic import (
        build_synthetic_columnar_corpus,
        build_synthetic_region_corpus,
    )
    from repro.rdns.regexes import HostnameParser

    columnar = mode == "columnar"
    if columnar:
        plan, col_corpus, followup_corpus = (
            build_synthetic_columnar_corpus(**workload)
        )
        rdns, isp = plan.rdns, plan.isp
        aliases, co_count = plan.aliases, plan.co_count
    else:
        corpus = build_synthetic_region_corpus(**workload)
        rdns, isp = corpus.rdns, corpus.isp
        aliases, co_count = corpus.aliases, corpus.co_count
    parser = HostnameParser()
    clear_module_memos()  # corpus generation must not pre-warm the memos

    profiler = PhaseProfiler()
    start = time.perf_counter()
    cache = InferenceCache(rdns, parser)
    mapper = Ip2CoMapper(rdns, isp, parser=parser, cache=cache)
    with profiler.phase("ip2co"):
        mapping = (
            mapper.build_columnar(col_corpus, aliases)
            if columnar
            else mapper.build(corpus.traces, aliases)
        )
    extractor = AdjacencyExtractor(mapping, rdns, isp, parser=parser, cache=cache)
    with profiler.phase("adjacency"):
        adjacencies = (
            extractor.extract_columnar(col_corpus, followup_corpus)
            if columnar
            else extractor.extract(corpus.traces, followup_traces=corpus.followups)
        )
    refiner = RegionRefiner(cache=cache)
    with profiler.phase("refine"):
        regions = {name: refiner.refine(name, counter) for name, counter in adjacencies.per_region.items()}
    wall_s = time.perf_counter() - start

    report = profiler.as_dict()
    stats = adjacencies.stats
    digest = _region_digest(regions)
    # One structurally-diffable manifest per measured mode: CI's
    # regression gate validates it and compares artifact digests.
    manifest = build_run_manifest(
        command=f"bench-inference:{mode}",
        seed=int(workload["seed"]),
        parameters=dict(workload),
        tracer=profiler.tracer,
        metrics=cache.metrics,
        artifact_digests={"inferred-regions": digest},
    )
    return {
        "mode": mode,
        "workload": dict(workload),
        "wall_s": round(wall_s, 3),
        "phases_s": report["phases_s"],
        "peak_rss_kb": report["peak_rss_kb"],
        "digest": digest,
        "manifest": manifest,
        "checks": {
            "co_count": co_count,
            "mapped_addresses": len(mapping),
            "regions": sorted(regions),
            "initial_ip": stats.initial_ip,
            "initial_co": stats.initial_co,
            "mpls_co": stats.mpls_co,
            "single_co": stats.single_co,
        },
        "cache_stats": cache.stats.as_dict(),
    }


def _spawn_mode(mode: str, workload: "dict") -> "dict":
    """Run one mode in its own process so peak-RSS readings are honest."""
    command = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--mode", mode, "--workload", json.dumps(workload),
    ]
    output = subprocess.run(
        command, capture_output=True, text=True, check=True, cwd=str(ROOT)
    )
    return json.loads(output.stdout)


def _best_of(repeats: int, mode: str, workload: "dict") -> "dict":
    """Best-of-N spawn: keep the fastest run's report (digests must agree).

    The tiny smoke corpus finishes in tens of milliseconds, where
    scheduler noise dominates; the minimum wall-clock is the standard
    noise-robust estimator, and the columnar speedup ratio is built
    from it.
    """
    runs = [_spawn_mode(mode, workload) for _ in range(max(1, repeats))]
    digests = {run["digest"] for run in runs}
    if len(digests) > 1:
        raise SystemExit(f"FATAL: {mode} digests varied across repeats: {digests}")
    return min(runs, key=lambda run: run["wall_s"])


def run_streaming_section(workload: "dict") -> "dict":
    """Streaming incremental inference vs the batch stages.

    Replays the synthetic corpus one trace at a time through
    :class:`~repro.bias.incremental.IncrementalCoGraph` and snapshots,
    then runs the classic batch stages over the same traces.  The
    snapshot digest must equal the batch digest — streaming is a
    scheduling change, not an approximation — and the section records
    both wall-clocks plus streaming ingest throughput.
    """
    from repro.infer.adjacency import AdjacencyExtractor
    from repro.infer.ip2co import Ip2CoMapper
    from repro.infer.refine import RegionRefiner
    from repro.perf.synthetic import build_synthetic_region_corpus
    from repro.rdns.regexes import HostnameParser

    from repro.bias.incremental import IncrementalCoGraph

    corpus = build_synthetic_region_corpus(**workload)
    parser = HostnameParser()

    start = time.perf_counter()
    mapper = Ip2CoMapper(corpus.rdns, corpus.isp, parser=parser)
    mapping = mapper.build(corpus.traces, corpus.aliases)
    extractor = AdjacencyExtractor(
        mapping, corpus.rdns, corpus.isp, parser=parser
    )
    adjacencies = extractor.extract(
        corpus.traces, followup_traces=corpus.followups
    )
    refiner = RegionRefiner()
    regions = {
        name: refiner.refine(name, counter)
        for name, counter in adjacencies.per_region.items()
    }
    batch_s = time.perf_counter() - start
    batch_digest = _region_digest(regions)

    graph = IncrementalCoGraph(corpus.rdns, corpus.isp, parser=parser)
    start = time.perf_counter()
    for trace in corpus.traces:
        graph.ingest(trace)
    for trace in corpus.followups:
        graph.ingest_followup(trace)
    ingest_s = time.perf_counter() - start
    start = time.perf_counter()
    snapshot = graph.snapshot(aliases=corpus.aliases)
    snapshot_s = time.perf_counter() - start

    stream_s = ingest_s + snapshot_s
    return {
        "workload": dict(workload),
        "batch_wall_s": round(batch_s, 3),
        "stream_wall_s": round(stream_s, 3),
        "stream_ingest_s": round(ingest_s, 3),
        "stream_snapshot_s": round(snapshot_s, 3),
        "stream_traces_per_s": (
            round(len(corpus.traces) / ingest_s) if ingest_s else 0
        ),
        "overhead": round(stream_s / batch_s, 2) if batch_s else 0.0,
        "digest_identical": snapshot.digest == batch_digest,
        "digest": batch_digest,
        "traces": len(corpus.traces),
        "followups": len(corpus.followups),
    }


#: Measurement-section workload: a bounded, paced slice of the Comcast
#: slash24 sweep.  1 ms inter-trace pacing ≈ a conservative probe RTT.
MEASUREMENT = {"seed": 0, "jobs": 4000, "pace_ms": 1.0, "sweep_vps": 4,
               "workers": 4}


def run_measurement_section() -> "dict":
    """Serial vs supervised (process-sharded) paced campaign."""
    from repro.infer.pipeline import CableInferencePipeline
    from repro.io.checkpoint import trace_to_dict
    from repro.measure.runner import CampaignRunner
    from repro.measure.substrates import cable_campaign
    from repro.measure.supervisor import SupervisedCampaignRunner

    def build():
        internet, fleet, worker_spec = cable_campaign(seed=MEASUREMENT["seed"])
        pipeline = CableInferencePipeline(
            internet.network, internet.comcast, fleet,
            sweep_vps=MEASUREMENT["sweep_vps"],
            pace_ms=MEASUREMENT["pace_ms"],
        )
        sweep = pipeline.vps[:MEASUREMENT["sweep_vps"]]
        jobs = [
            (vp, target)
            for vp in sweep for target in pipeline.slash24_targets()
        ][:MEASUREMENT["jobs"]]
        return pipeline, jobs, worker_spec

    def digest(traces) -> str:
        blob = json.dumps([trace_to_dict(t) for t in traces],
                          sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    pipeline, jobs, _worker_spec = build()
    start = time.perf_counter()
    serial_traces = CampaignRunner(pipeline.tracer, pipeline.vps).run(
        jobs, stage="slash24"
    )
    serial_s = round(time.perf_counter() - start, 3)
    serial_digest = digest(serial_traces)

    pipeline, jobs, worker_spec = build()
    supervised = SupervisedCampaignRunner(
        pipeline.tracer, pipeline.vps,
        worker_spec=worker_spec, workers=MEASUREMENT["workers"],
    )
    start = time.perf_counter()
    supervised_traces = supervised.run(jobs, stage="slash24")
    supervised_s = round(time.perf_counter() - start, 3)

    return {
        "workload": dict(MEASUREMENT),
        "serial_wall_s": serial_s,
        "supervised_wall_s": supervised_s,
        "speedup": round(serial_s / supervised_s, 2) if supervised_s else 0.0,
        "corpus_digest_identical": digest(supervised_traces) == serial_digest,
        "corpus_digest": serial_digest,
        "traces": len(serial_traces),
        "health": {
            "shards_planned": supervised.health.shards_planned,
            "workers_spawned": supervised.health.workers_spawned,
            "shards_retried": supervised.health.shards_retried,
            "shards_poisoned": supervised.health.shards_poisoned,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("optimized", "columnar"),
                        help="internal: run one inference mode and print JSON")
    parser.add_argument("--workload", help="internal: workload JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus, skip the measurement section (CI)")
    parser.add_argument("--repeats", type=int, default=0,
                        help="best-of-N wall-clock per mode "
                             "(default: 3 for --smoke, 1 for full)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_CURRENT.json"))
    args = parser.parse_args()

    if args.mode:
        workload = json.loads(args.workload) if args.workload else FULL_WORKLOAD
        print(json.dumps(run_inference_mode(args.mode, workload), indent=2))
        return 0

    workload = SMOKE_WORKLOAD if args.smoke else FULL_WORKLOAD
    repeats = args.repeats or (3 if args.smoke else 1)
    print(f"workload: {workload} (best of {repeats})", file=sys.stderr)
    optimized = _best_of(repeats, "optimized", workload)
    print(f"optimized: {optimized['wall_s']}s, "
          f"rss {optimized['peak_rss_kb']}kB", file=sys.stderr)

    payload = {
        "benchmark": "inference + supervised measurement",
        "smoke": args.smoke,
        "inference": {"optimized": optimized},
    }

    # Columnar section: object-graph oracle vs vectorized columnar path
    # over the (unpaced) 1000-CO workload.  Digest identity is fatal —
    # the columnar path must reproduce the oracle's graphs exactly.
    col_workload = (
        COLUMNAR_SMOKE_WORKLOAD if args.smoke else COLUMNAR_WORKLOAD
    )
    print(f"columnar workload: {col_workload} (best of {repeats})",
          file=sys.stderr)
    oracle = _best_of(repeats, "optimized", col_workload)
    print(f"oracle (object): {oracle['wall_s']}s, "
          f"rss {oracle['peak_rss_kb']}kB", file=sys.stderr)
    columnar = _best_of(repeats, "columnar", col_workload)
    print(f"columnar:        {columnar['wall_s']}s, "
          f"rss {columnar['peak_rss_kb']}kB", file=sys.stderr)
    if oracle["digest"] != columnar["digest"]:
        print("FATAL: columnar path diverged from the object-graph oracle",
              file=sys.stderr)
        return 1
    col_speedup = (
        oracle["wall_s"] / columnar["wall_s"]
        if columnar["wall_s"] else float("inf")
    )
    payload["columnar"] = {
        "oracle": oracle,
        "columnar": columnar,
        "speedup": round(col_speedup, 2),
        "results_identical": True,
    }
    print(f"columnar speedup: {col_speedup:.2f}x", file=sys.stderr)

    # Streaming section: incremental engine vs batch, digest parity
    # fatal.  Runs in-process (it compares wall-clock ratios, not RSS).
    print(f"streaming workload: {workload}", file=sys.stderr)
    streaming = run_streaming_section(workload)
    print(f"streaming: ingest {streaming['stream_ingest_s']}s + snapshot "
          f"{streaming['stream_snapshot_s']}s vs batch "
          f"{streaming['batch_wall_s']}s "
          f"({streaming['stream_traces_per_s']} traces/s)", file=sys.stderr)
    if not streaming["digest_identical"]:
        print("FATAL: streaming snapshot diverged from the batch pipeline",
              file=sys.stderr)
        return 1
    payload["streaming"] = streaming

    if not args.smoke:
        print("measurement section (serial vs supervised workers=4)…",
              file=sys.stderr)
        payload["measurement"] = run_measurement_section()

    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    # Standalone schema-valid sidecar (the optimized mode's manifest),
    # uploaded by CI so every benchmark run ships its provenance.
    from repro.obs import run_manifest_from_json, write_run_manifest

    sidecar = out.with_name(out.stem + ".manifest.json")
    write_run_manifest(
        sidecar, run_manifest_from_json(json.dumps(optimized["manifest"]))
    )
    print(f"payload               →  {out}", file=sys.stderr)
    print(f"manifest sidecar      →  {sidecar}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
