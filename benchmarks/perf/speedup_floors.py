"""Speed floors, measured live on the code under test.

Each floor is a ratio of two wall-clocks taken in the same run, so the
verdict does not depend on the host's speed:

* **supervised** — the first 4,000 jobs of the seed-0 Comcast slash24
  sweep over 4 VPs, paced 1 ms per trace (the latency-bound regime
  sharded measurement exists for): 4 supervised workers must beat the
  serial runner by at least 1.5x.
* **columnar** — phase 2 over the 500k-trace synthetic campaign: the
  columnar path must beat the object adapters over ``to_traces()`` by
  at least 3.0x.

Each side runs three times, interleaved, each run in a fresh
interpreter; the fastest run counts.  Building the campaign or corpus
is not timed, and the module memos are cleared after it.  Every run
must reproduce its floor's pinned digest (trace corpus or regions).

Exit codes: 0 when both floors hold, 1 otherwise (reasons on stderr).

Usage::

    python benchmarks/perf/speedup_floors.py
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import pathlib
import sys
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

REPEATS = 3

CAMPAIGN = {"seed": 0, "jobs": 4000, "pace_ms": 1.0, "sweep_vps": 4, "workers": 4}
#: 20 AggCOs per region keep the per-agg link count inside one octet.
INFERENCE = dict(regions=4, cos_per_region=250, aggs_per_region=20, traces=500000, followups=8000, seed=2021)


class Floor(NamedTuple):
    """The *fast* side must beat the *slow* side by at least *ratio*."""

    slow: str
    fast: str
    ratio: float
    digest: str


FLOORS = {
    "supervised": Floor(
        "serial", "supervised", 1.5, "c9aa8bd07fba26a5e78bcf61aafbb175136e8595233567e7fd6d63e55c0ed447"
    ),
    "columnar": Floor("object", "columnar", 3.0, "ef50ca27ee3c0ef261599c22d169832f95e363c72d77a26133db4facb4813f4a"),
}


def verdict(name: str, slow_runs: "list[dict]", fast_runs: "list[dict]") -> "list[str]":
    """Failures of floor *name* (empty when it holds).

    Each run is ``{"seconds": float, "digest": str}``; the fastest run of
    each side forms the speedup.
    """
    floor = FLOORS[name]
    failures = [
        f"{name}: {side} run digest {run['digest'][:12]}… != pinned {floor.digest[:12]}…"
        for side, runs in ((floor.slow, slow_runs), (floor.fast, fast_runs))
        for run in runs
        if run["digest"] != floor.digest
    ]
    slow_s = min(run["seconds"] for run in slow_runs)
    fast_s = min(run["seconds"] for run in fast_runs)
    speedup = slow_s / fast_s if fast_s > 0 else float("inf")
    if speedup < floor.ratio:
        failures.append(f"{name}: {floor.fast} is {speedup:.2f}x {floor.slow}, below the {floor.ratio:.1f}x floor")
    return failures


# ----------------------------------------------------------------------
# Sides: each runs in its own interpreter and returns one timed run.
# ----------------------------------------------------------------------
def _campaign_side(supervised: bool) -> dict:
    from repro.infer.pipeline import CableInferencePipeline
    from repro.io.checkpoint import trace_to_dict
    from repro.measure.runner import CampaignRunner
    from repro.measure.substrates import cable_campaign
    from repro.measure.supervisor import SupervisedCampaignRunner
    from repro.perf.cache import clear_module_memos

    internet, fleet, worker_spec = cable_campaign(seed=CAMPAIGN["seed"])
    pipeline = CableInferencePipeline(
        internet.network, internet.comcast, fleet, sweep_vps=CAMPAIGN["sweep_vps"], pace_ms=CAMPAIGN["pace_ms"]
    )
    sweep = pipeline.vps[: CAMPAIGN["sweep_vps"]]
    jobs = [(vp, target) for vp in sweep for target in pipeline.slash24_targets()][: CAMPAIGN["jobs"]]
    if supervised:
        runner = SupervisedCampaignRunner(
            pipeline.tracer, pipeline.vps, worker_spec=worker_spec, workers=CAMPAIGN["workers"]
        )
    else:
        runner = CampaignRunner(pipeline.tracer, pipeline.vps)
    clear_module_memos()
    start = time.perf_counter()
    traces = runner.run(jobs, stage="slash24")
    seconds = time.perf_counter() - start
    blob = json.dumps([trace_to_dict(trace) for trace in traces], sort_keys=True).encode()
    return {"seconds": seconds, "digest": hashlib.sha256(blob).hexdigest()}


def _inference_side(columnar: bool) -> dict:
    from repro.bias.incremental import region_digest
    from repro.infer.adjacency import AdjacencyExtractor
    from repro.infer.ip2co import Ip2CoMapper
    from repro.infer.refine import RegionRefiner
    from repro.perf import InferenceCache
    from repro.perf.cache import clear_module_memos
    from repro.perf.synthetic import build_synthetic_columnar_corpus
    from repro.rdns.regexes import HostnameParser

    plan, corpus, followups = build_synthetic_columnar_corpus(**INFERENCE)
    if not columnar:
        corpus, followups = corpus.to_traces(), followups.to_traces()
    parser = HostnameParser()
    clear_module_memos()
    start = time.perf_counter()
    cache = InferenceCache(plan.rdns, parser)
    mapper = Ip2CoMapper(plan.rdns, plan.isp, parser=parser, cache=cache)
    mapping = mapper.build_columnar(corpus, plan.aliases) if columnar else mapper.build(corpus, plan.aliases)
    extractor = AdjacencyExtractor(mapping, plan.rdns, plan.isp, parser=parser, cache=cache)
    if columnar:
        adjacencies = extractor.extract_columnar(corpus, followups)
    else:
        adjacencies = extractor.extract(corpus, followup_traces=followups)
    refiner = RegionRefiner(cache=cache)
    regions = {name: refiner.refine(name, counter) for name, counter in adjacencies.per_region.items()}
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "digest": region_digest(regions)}


SIDES = {
    "serial": lambda: _campaign_side(supervised=False),
    "supervised": lambda: _campaign_side(supervised=True),
    "object": lambda: _inference_side(columnar=False),
    "columnar": lambda: _inference_side(columnar=True),
}


def _side_main(side: str, conn) -> None:
    conn.send(SIDES[side]())
    conn.close()


def run_side(side: str) -> dict:
    """One timed run of *side* in a freshly spawned interpreter."""
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    # Not daemonic: the supervised side spawns workers of its own.
    process = context.Process(target=_side_main, args=(side, sender))
    process.start()
    sender.close()
    try:
        return receiver.recv()
    except EOFError:
        process.join()
        raise SystemExit(f"{side} run died (exit {process.exitcode})") from None
    finally:
        process.join()


def main() -> int:
    failures = []
    for name, floor in FLOORS.items():
        runs = {floor.slow: [], floor.fast: []}
        for _ in range(REPEATS):
            for side in runs:
                runs[side].append(run_side(side))
        slow_s = min(run["seconds"] for run in runs[floor.slow])
        fast_s = min(run["seconds"] for run in runs[floor.fast])
        print(
            f"{name}: {floor.slow} {slow_s:.2f} s, {floor.fast} {fast_s:.2f} s, "
            f"{slow_s / fast_s:.2f}x (floor {floor.ratio:.1f}x, best of {REPEATS})"
        )
        failures += verdict(name, runs[floor.slow], runs[floor.fast])
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
