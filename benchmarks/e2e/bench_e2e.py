"""End-to-end, layer-by-layer benchmark of the campaign stack.

Four workloads, each run the way users run it, every unit of work in a
fresh child process (the module memos are process-wide, and a real run
always fills them from cold):

* ``charter-serial`` — ``repro --seed S map-cable charter --sweep-vps 3
  --json-dir DIR``: the reference campaign, about 90% simulated probing.
* ``comcast-supervised-faulty`` — ``map-cable comcast --sweep-vps 3
  --workers 2 --corpus-format binary --faults 0.05 --fault-seed S
  --attempts 2 --corpus-out DIR/corpus.npz --json-dir DIR``: the same
  probing kernel behind the process-sharded supervisor, with retries,
  the columnar lift and the binary export.
* ``synthetic-infer-500k`` — phase 2 only (``Ip2CoMapper.build_columnar``
  → ``AdjacencyExtractor.extract_columnar`` → ``RegionRefiner.refine``)
  over a saved 500k-trace columnar corpus; probing is bypassed.
* ``service-steady`` — ``repro service run`` beside ``repro service
  serve`` under an open loop: one toy job spooled per 50 ms slot and one
  HTTP read per 100 ms slot, for ``--seconds`` seconds.

Every untraced run measures a fixed number of units per workload
(:data:`UNITS`), so two commits always do the same work.

End-to-end metrics (untraced runs only): ``setup_s``, ``run_s`` and
``peak_rss_mb``; see ``README.md`` for their per-workload definitions.
``--trace 1`` runs one untraced and one traced unit, checks that their
artifacts are byte-identical, and reports per-layer call counts and
self times from :mod:`layers` instead.  ``--smoke`` selects the short
shape the tests use: one unit, one set-up sample, the 20k-trace
inference corpus and a 2 s service loop.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Usage::

    python benchmarks/e2e/bench_e2e.py [--workload NAME] [--seed S]
        [--seconds N] [--trace 0|1] [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import json
import os
import pathlib
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for child outputs, corpora and service state; removed
#: at the end of every run.
WORK = ROOT / ".bench_work"
for _path in (str(HERE), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from layers import COUNTS, LABELS, LayerClock  # noqa: E402

WORKLOADS = (
    "charter-serial",
    "comcast-supervised-faulty",
    "synthetic-infer-500k",
    "service-steady",
)

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}

#: Per-layer metrics beyond the wrapped calls: program counters read
#: from the run's own artifacts, service latencies read from the job
#: records, and the benchmark's own health.
EXTRA_LAYER_METRICS = {
    "measure.probes_sent": "count",
    "measure.probes_retried": "count",
    "measure.answer_ratio": "ratio",
    "measure.supervisor.workers_spawned": "count",
    "measure.supervisor.first_try_ratio": "ratio",
    "infer.cache.hit_ratio": "ratio",
    "service.queue_wait_ms.p50": "ms",
    "service.attempt_ms.p50": "ms",
    "service.attempt_ms.p95": "ms",
    "service.job_ms.p95": "ms",
    "service.read_ms.p50": "ms",
    "service.read_ms.p90": "ms",
    "service.read_errors": "count",
    "bench.gen_lag_ms.p99": "ms",
    "bench.trace_overhead": "ratio",
}

PER_LAYER = {
    **{f"{label}.calls": "count" for label in LABELS},
    **{f"{label}.self_s": "s" for label in LABELS},
    **{name: "count" for name in COUNTS},
    **EXTRA_LAYER_METRICS,
}

#: Units of work per untraced run.  The count never depends on how fast
#: a unit ran, so a faster commit measures the same work as its parent.
#: On a 2-core x86 VM a charter campaign takes about 9 s, a comcast one
#: about 16 s and an inference pass about 2 s, plan rebuild included;
#: one comcast campaign keeps a run of every workload near 20-35 s.
UNITS = {"charter-serial": 3, "comcast-supervised-faulty": 1, "synthetic-infer-500k": 5}
#: Set-up samples per untraced run; cheap set-up-only children top the
#: workload's own units up to this count.  A single set-up varies by
#: ±20% run to run, mostly in module imports.
SETUP_SAMPLES = 7
#: ``--smoke``: the service open loop's length, in seconds.
SMOKE_SERVICE_S = 2.0
#: A single workload run must finish well inside three minutes.
RUN_BUDGET_S = 170.0

INFER_WORKLOAD = {"regions": 4, "cos_per_region": 250, "aggs_per_region": 20,
                  "traces": 500000, "followups": 8000}
INFER_SMOKE_WORKLOAD = {"regions": 2, "cos_per_region": 40,
                        "traces": 20000, "followups": 2000}
#: The synthetic corpus seed is ``INFER_SEED + --seed``.
INFER_SEED = 2021

JOB_INTERVAL_S = 0.05
READ_INTERVAL_S = 0.1
#: Reads of ``/jobs/<id>`` name the job spooled this long before.
READ_LAG_S = 1.0
#: A read is retried on an error response, as an HTTP client retries a
#: 502.  A readonly store open that races a compaction can replay the
#: new journal over the old snapshot and answer 502 ("journal names
#: unknown job"): a known fault of the program, hit by well under 1% of
#: reads.  Reads whose first attempt failed are ``service.read_errors``;
#: when they exceed this share of the reads (or :data:`READ_ERROR_FLOOR`
#: in a short loop), every one of them counts as a failed operation.
READ_ATTEMPTS = 3
READ_ERROR_SHARE = 0.05
READ_ERROR_FLOOR = 2
JOB_FORMATS = ("json", "binary")
#: An open-loop run whose generator ran later than this is invalid.
GEN_LAG_LIMIT_MS = 50.0

#: Digests pinned for ``--seed 0``.  ``service-steady``'s per-format
#: artifact digests hold for every seed: the toy pipeline's output does
#: not depend on the job seed.
PINNED = {
    "charter-serial": {
        "regions": "7aae2fba9f7036784c570eb23c559b92edb4c2c78b64cb23d12afda7e3414c30",
        "corpus": "5d70e0d250a84b31d9103a0e7a54c5e9304a8e0ff530ef55ca24d0fab1784e75",
    },
    "comcast-supervised-faulty": {
        "artifacts": "34619e865c70c0e202c0bb3eeb366b4354c913655cd92187b30cb6893549d0c7",
        "corpus": "4a41eea00f2472185911f1d6d976cd8ca9ce1833ab1c4acd3d4ccb5ea96f400b",
    },
    "synthetic-infer-500k": {
        "regions": "ef50ca27ee3c0ef261599c22d169832f95e363c72d77a26133db4facb4813f4a",
    },
    "synthetic-infer-500k/smoke": {
        "regions": "b63c71ff285b7ebe450abb1f2c8bfaa2e646239fc3afae9e53b0f3407cd2bcfc",
    },
}
SERVICE_PINNED = {
    "json": "99078b8200ed7091f1a0648c8410c7e4b7295c1d8ed184e7056dd0ddb5e5e544",
    "binary": "be4197b8f72d96d90e6e8306540d6142aa6ff443b2d849ba7a4501511fb9fa01",
}


def pinned_digests(workload: str, seed: int, smoke: bool) -> "dict[str, str]":
    """The digests a run of *workload* must reproduce exactly."""
    if workload == "service-steady":
        return dict(SERVICE_PINNED)
    if seed != 0:
        return {}
    key = f"{workload}/smoke" if smoke and workload == "synthetic-infer-500k" else workload
    return dict(PINNED[key])


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def files_digest(paths) -> str:
    """One digest over named files: ``name NUL sha256`` lines, by name."""
    lines = [f"{path.name}\0{hashlib.sha256(path.read_bytes()).hexdigest()}\n"
             for path in sorted(paths, key=lambda p: p.name)]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def region_digest(regions) -> str:
    """Order-independent digest of inferred region graphs.

    The same digest ``benchmarks/perf/bench_pipeline.py`` pins for the
    columnar workload, kept here so the benchmark does not change when
    that script does.
    """
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
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _peak_rss_kb() -> int:
    """Peak resident set of this process and its waited-for children, in KiB.

    A process's own ``ru_maxrss`` starts from its parent's resident set
    at fork time, so the own peak comes from ``VmHWM``, which starts
    afresh at exec.  A child's peak can only be overstated up to this
    process's size when it forked, which this process's peak covers.
    """
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class _SetupDone(Exception):
    """Raised from the set-up hook to stop a set-up-only child."""


def _require_checkout_src() -> None:
    import repro

    origin = pathlib.Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"repro imported from {origin}, not from {SRC}")


def _child_cli(spec: dict, start: float):
    """``repro.cli.main(argv)`` with set-up marked and the result kept."""
    from repro.cli import main
    from repro.infer.pipeline import CableInferencePipeline
    from repro.topology.internet import SimulatedInternet

    marks: "dict[str, float]" = {}
    captured = []
    build_vps = SimulatedInternet.build_standard_vps
    pipeline_run = CableInferencePipeline.run

    def marked_build_vps(internet):
        fleet = build_vps(internet)
        marks["setup"] = time.perf_counter()
        if spec.get("setup_only"):
            raise _SetupDone
        return fleet

    def capturing_run(pipeline):
        result = pipeline_run(pipeline)
        captured.append(result)
        return result

    SimulatedInternet.build_standard_vps = marked_build_vps
    CableInferencePipeline.run = capturing_run
    try:
        code = main(spec["argv"])
    except _SetupDone:
        code = 0
    finally:
        end = time.perf_counter()
        SimulatedInternet.build_standard_vps = build_vps
        CableInferencePipeline.run = pipeline_run
    result = {"exit": code, "setup_s": marks["setup"] - start}
    if not spec.get("setup_only"):
        result["run_s"] = end - marks["setup"]

    def finish():
        if not captured:
            return {}
        from repro.io.checkpoint import trace_to_dict

        # The collected corpus, digested after the clock stopped.
        digest = hashlib.sha256()
        for trace in captured[0].traces + captured[0].followup_traces:
            digest.update(json.dumps(trace_to_dict(trace), sort_keys=True).encode())
        return {"digests": {"corpus": digest.hexdigest()}}

    return result, finish


def _child_infer(spec: dict, start: float):
    """One synthetic-infer pass: rebuild the plan, load, infer."""
    # repro.perf.synthetic sits on an import cycle that only resolves
    # when repro.net is imported first.
    import repro.net  # noqa: F401
    from repro.corpus import load_corpus
    from repro.infer.adjacency import AdjacencyExtractor
    from repro.infer.ip2co import Ip2CoMapper
    from repro.infer.refine import RegionRefiner
    from repro.perf import InferenceCache
    from repro.perf.cache import clear_module_memos
    from repro.perf.synthetic import build_synthetic_region_plan
    from repro.rdns.regexes import HostnameParser

    plan = build_synthetic_region_plan(**spec["workload"])
    parser = HostnameParser()
    clear_module_memos()  # input generation must not pre-warm the memos
    t0 = time.perf_counter()
    corpus = load_corpus(spec["corpora"][0])
    followups = load_corpus(spec["corpora"][1])
    t1 = time.perf_counter()
    cache = InferenceCache(plan.rdns, parser)
    mapping = Ip2CoMapper(plan.rdns, plan.isp, parser=parser, cache=cache).build_columnar(corpus, plan.aliases)
    extractor = AdjacencyExtractor(mapping, plan.rdns, plan.isp, parser=parser, cache=cache)
    adjacencies = extractor.extract_columnar(corpus, followups)
    refiner = RegionRefiner(cache=cache)
    regions = {name: refiner.refine(name, counter) for name, counter in adjacencies.per_region.items()}
    t2 = time.perf_counter()
    result = {"exit": 0, "setup_s": t1 - t0, "run_s": t2 - t1,
              "regions": len(regions), "cache": cache.stats.as_dict()}
    return result, lambda: {"digests": {"regions": region_digest(regions)}}


def _child_generate(spec: dict, start: float):
    """Generate the synthetic campaign once and save both corpora."""
    import repro.net  # noqa: F401  (see _child_infer)
    from repro.corpus import save_corpus
    from repro.perf.synthetic import build_synthetic_columnar_corpus

    _plan, corpus, followups = build_synthetic_columnar_corpus(**spec["workload"])
    save_corpus(spec["corpora"][0], corpus)
    save_corpus(spec["corpora"][1], followups)
    return {"exit": 0}, dict


def _child_service(spec: dict, start: float):
    """The service launcher: ``repro.cli.main(argv)`` until it returns."""
    from repro.cli import main

    return {"exit": main(spec["argv"])}, dict


_CHILD_KINDS = {"cli": _child_cli, "infer": _child_infer, "generate": _child_generate, "service": _child_service}


def child_main(spec: dict) -> int:
    """Entry of every child process; writes its result to ``spec["out"]``."""
    start = time.perf_counter()  # before repro is imported
    _require_checkout_src()
    clock = LayerClock().install() if spec["trace"] else None
    try:
        result, finish = _CHILD_KINDS[spec["kind"]](spec, start)
    finally:
        if clock is not None:
            clock.uninstall()
    result["rss_kb"] = _peak_rss_kb()
    result.update(finish())
    if clock is not None:
        result["layers"] = clock.metrics()
    pathlib.Path(spec["out"]).write_text(json.dumps(result))
    return 0


class Children:
    """Spawns child processes and guarantees every one has ended."""

    def __init__(self, work: pathlib.Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self._procs: "list[subprocess.Popen]" = []
        self._count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))

    def start(self, spec: dict) -> "tuple[subprocess.Popen, pathlib.Path, pathlib.Path]":
        """Start one child; returns the process, its result path and its log."""
        self._count += 1
        out = self.work / f"child-{self._count}.json"
        log = self.work / f"child-{self._count}.log"
        command = [sys.executable, "-u", str(HERE / "bench_e2e.py"),
                   "--child", json.dumps({**spec, "out": str(out)})]
        with open(log, "w") as handle:
            # Own session: a timed-out child is killed with everything
            # it spawned (the supervised runner's workers).
            proc = subprocess.Popen(command, stdout=handle, stderr=subprocess.STDOUT,
                                    cwd=str(ROOT), env=self.env, start_new_session=True)
        self._procs.append(proc)
        return proc, out, log

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def wait(self, proc: subprocess.Popen, timeout: "float | None" = None) -> int:
        try:
            return proc.wait(timeout=min(timeout or self.remaining(), self.remaining()))
        except subprocess.TimeoutExpired:
            self._kill(proc)
            return -signal.SIGKILL

    def run(self, spec: dict) -> dict:
        """Run one child to completion; returns its result (``ok`` marks success)."""
        proc, out, log = self.start(spec)
        code = self.wait(proc)
        if code != 0 or not out.exists():
            tail = log.read_text()[-2000:]
            print(f"child {spec['kind']} failed (exit {code}):\n{tail}", file=sys.stderr)
            return {"ok": False}
        result = json.loads(out.read_text())
        result["ok"] = result.get("exit") == 0
        return result

    def _kill(self, proc: subprocess.Popen) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()

    def close(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                self._kill(proc)


# ----------------------------------------------------------------------
# Workload runners
# ----------------------------------------------------------------------
def _units(unit, workload: str, trace: bool, smoke: bool) -> list:
    """An untraced and a traced unit, or the workload's fixed untraced count."""
    if trace:
        return [unit(0), unit(1, traced=True)]
    return [unit(index) for index in range(1 if smoke else UNITS[workload])]


class Outcome:
    """One workload run: what was attempted, what failed, what was measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []
        self.metrics: "dict[str, float]" = {}
        self.digests: "dict[str, str]" = {}
        self.samples: "dict[str, list]" = {}
        self.artifacts_identical: "bool | None" = None

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def check_digests(self, expected: "dict[str, str]") -> None:
        for name, value in expected.items():
            if self.digests.get(name) != value:
                self.problem(f"digest {name} is {self.digests.get(name)}, pinned {value}")

    def check_units(self, units: "list[dict]") -> "list[dict]":
        """The units that finished; every one must produce the same digests."""
        good = [result for result in units if result["ok"]]
        if not good:
            self.problem("no unit of work finished")
            return good
        self.digests = good[0]["digests"]
        for result in good[1:]:
            if result["digests"] != self.digests:
                self.failed += 1
                self.problem(f"digests differ between units: {result['digests']} vs {self.digests}")
        return good

    def record_untraced(self, good: "list[dict]", setups: "list[float]") -> None:
        """End-to-end metrics: medians over the units, peak memory over all."""
        self.samples = {"setup_s": setups, "run_s": [result["run_s"] for result in good]}
        self.metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(self.samples["run_s"]),
            "peak_rss_mb": max(result["rss_kb"] for result in good) / 1024,
        }

    def record_traced(self, good: "list[dict]", extra) -> None:
        """Per-layer metrics from an (untraced, traced) pair of units.

        ``extra(traced_unit)`` returns the metrics the wrappers cannot see.
        """
        if len(good) != 2:
            return
        untraced, traced = good
        self.artifacts_identical = untraced["digests"] == traced["digests"]
        self.metrics.update(traced["layers"])
        self.metrics.update(extra(traced))
        self.metrics["bench.trace_overhead"] = round(traced["run_s"] / untraced["run_s"] - 1, 4)

    def as_dict(self, units: "dict[str, str]") -> dict:
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name], "unit": unit} for name, unit in units.items()},
            "digests": self.digests,
            "samples": self.samples,
            "artifacts_identical": self.artifacts_identical,
            "problems": self.problems,
        }


def _campaign_argv(workload: str, seed: int, out: pathlib.Path) -> "list[str]":
    if workload == "charter-serial":
        return ["--seed", str(seed), "map-cable", "charter", "--sweep-vps", "3", "--json-dir", str(out)]
    return ["--seed", str(seed), "map-cable", "comcast", "--sweep-vps", "3", "--workers", "2",
            "--corpus-format", "binary", "--faults", "0.05", "--fault-seed", str(seed),
            "--attempts", "2", "--corpus-out", str(out / "corpus.npz"), "--json-dir", str(out)]


def _campaign_outputs(workload: str, out: pathlib.Path) -> "tuple[dict, list[pathlib.Path]]":
    """The digests of a campaign's exported artifacts, and its region files."""
    isp = "charter" if workload == "charter-serial" else "comcast"
    regions = [path for path in out.glob(f"{isp}-*.json")
               if path.stem.rsplit("-", 1)[1] not in ("health", "manifest", "quarantine")]
    if workload == "charter-serial":
        return {"regions": files_digest(regions)}, regions
    extra = [out / f"{isp}-health.json", out / "corpus.npz", out / "corpus.followup.npz"]
    return {"artifacts": files_digest(regions + extra)}, regions


def _health(out: pathlib.Path) -> dict:
    """The campaign-health artifact a ``map-cable --json-dir`` run exports."""
    return json.loads(next(out.glob("*-health.json")).read_text())["health"]


def _program_counters(workload: str, out: pathlib.Path) -> "dict[str, float]":
    """Probe, supervisor and cache counters from the run's health and manifest."""
    isp = "charter" if workload == "charter-serial" else "comcast"
    health = _health(out)
    counters = json.loads((out / f"{isp}-manifest.json").read_text())["metrics"]["counters"]
    sent = health["probes_sent"]
    answered = sent - health["probes_lost"] - health["probes_refused"]
    planned = health["shards_planned"]
    return {
        "measure.probes_sent": sent,
        "measure.probes_retried": health["probes_retried"],
        "measure.answer_ratio": round(answered / sent, 6) if sent else 0.0,
        "measure.supervisor.workers_spawned": health["workers_spawned"],
        "measure.supervisor.first_try_ratio": round(1 - health["shards_retried"] / planned, 6) if planned else 0.0,
        "infer.cache.hit_ratio": _hit_ratio({key: counters.get(f"cache.{key}", 0) for key in _CACHE_KEYS}),
    }


_CACHE_KEYS = ("lookup_hits", "lookup_misses", "parse_hits", "parse_misses")


def _hit_ratio(stats: "dict[str, int]") -> float:
    """Share of ``InferenceCache`` lookups and parses served from the cache."""
    hits = stats["lookup_hits"] + stats["parse_hits"]
    total = hits + stats["lookup_misses"] + stats["parse_misses"]
    return round(hits / total, 6) if total else 0.0


def run_campaign(workload: str, seed: int, trace: bool, smoke: bool,
                 children: Children, outcome: Outcome) -> None:
    """``charter-serial`` and ``comcast-supervised-faulty``."""
    from repro.io.export import region_from_json

    work = children.work

    def unit(index: int, traced: bool = False) -> dict:
        out = work / f"out-{index}"
        result = children.run({"kind": "cli", "argv": _campaign_argv(workload, seed, out), "trace": traced})
        outcome.attempted += 1
        if result["ok"]:
            digests, regions = _campaign_outputs(workload, out)
            result["digests"] = {**digests, **result.get("digests", {})}
            for path in regions:
                region_from_json(path.read_text())  # schema-validated
            result["out"] = out
        else:
            outcome.failed += 1
        return result

    good = outcome.check_units(_units(unit, workload, trace, smoke))
    if not good:
        return
    health = _health(good[0]["out"])
    if health["degraded"] or health["shards_poisoned"]:
        outcome.problem(f"campaign degraded: {health}")
    if trace:
        outcome.record_traced(good, lambda traced: _program_counters(workload, traced["out"]))
        return
    setups = [result["setup_s"] for result in good]
    while len(setups) < (1 if smoke else SETUP_SAMPLES):
        result = children.run({"kind": "cli", "argv": _campaign_argv(workload, seed, work / "setup"),
                               "trace": False, "setup_only": True})
        outcome.attempted += 1
        if not result["ok"]:
            outcome.failed += 1
            break
        setups.append(result["setup_s"])
    outcome.record_untraced(good, setups)


def run_infer(seed: int, trace: bool, smoke: bool, children: Children, outcome: Outcome) -> None:
    """``synthetic-infer-500k``: inference passes over saved corpora."""
    workload = dict(INFER_SMOKE_WORKLOAD if smoke else INFER_WORKLOAD, seed=INFER_SEED + seed)
    corpora = [str(children.work / "corpus.npz"), str(children.work / "corpus.followup.npz")]
    if not children.run({"kind": "generate", "workload": workload, "corpora": corpora, "trace": False})["ok"]:
        raise RuntimeError("synthetic corpus generation failed")

    def unit(index: int, traced: bool = False) -> dict:
        result = children.run({"kind": "infer", "workload": workload, "corpora": corpora, "trace": traced})
        outcome.attempted += 1
        if not result["ok"]:
            outcome.failed += 1
        return result

    good = outcome.check_units(_units(unit, "synthetic-infer-500k", trace, smoke))
    for result in good:
        if result["regions"] != workload["regions"]:
            outcome.problem(f"inferred {result['regions']} regions, planted {workload['regions']}")
    if not good:
        return
    if trace:
        outcome.record_traced(good, lambda traced: {"infer.cache.hit_ratio": _hit_ratio(traced["cache"])})
        return
    outcome.record_untraced(good, [result["setup_s"] for result in good])


def _wait_for(predicate, timeout: float, proc: "subprocess.Popen | None" = None, poll: float = 0.005):
    """Poll until *predicate* returns a truthy value; None on timeout or exit."""
    end = time.perf_counter() + timeout
    while time.perf_counter() < end:
        value = predicate()
        if value:
            return value
        if proc is not None and proc.poll() is not None:
            return None
        time.sleep(poll)
    return None


def _start_executor(children: Children, state: pathlib.Path, seed: int, traced: bool):
    """Spawn ``service run``; returns the process, its result path and set-up time."""
    began = time.perf_counter()
    proc, out, _log = children.start({
        "kind": "service", "trace": traced,
        "argv": ["--seed", str(seed), "service", "run", str(state),
                 "--executor-id", "bench", "--queue-limit", "64"],
    })
    lock = state / "executors" / "bench.lock"
    if not _wait_for(lock.exists, 60.0, proc):
        raise RuntimeError("service run never took its executor lock")
    return proc, out, time.perf_counter() - began


def _drain(state: pathlib.Path) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(sys.stderr):
        main(["service", "drain", str(state)])


def _service_setup(children: Children, state: pathlib.Path, seed: int) -> float:
    """One set-up sample: start an executor on a fresh state dir, then drain it."""
    proc, _out, setup_s = _start_executor(children, state, seed, traced=False)
    _drain(state)
    if children.wait(proc, 60.0) != 0:
        raise RuntimeError("service run did not drain cleanly")
    return setup_s


def _http_get(port: int, path: str) -> str:
    """``"200"`` on success, else the status and the error body's first line."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
        if response.status == 200:
            return "200"
        return f"{response.status} {body.decode(errors='replace').splitlines()[0]}"
    except OSError as exc:
        return f"no response: {exc}"
    finally:
        connection.close()


def _schedule(rng: random.Random, interval: float, seconds: float) -> "list[float]":
    """One due time per *interval* slot, drawn uniformly inside its slot.

    The mean rate is fixed, but arrivals do not phase-lock to the
    service's 50 ms idle poll, which would otherwise make the median
    latency depend on the phase a run happens to start in.
    """
    return [(slot + rng.random()) * interval for slot in range(round(seconds / interval))]


def _open_loop(state: pathlib.Path, port: int, seed: int, seconds: float) -> dict:
    """Spool jobs and send reads on a fixed schedule; nothing waits for replies.

    One generator thread wakes at each due time and hands the request
    to a thread of its own, so a slow spool or read never delays the
    next one.  Every latency is timed from the request's due time, and
    ``lags`` records how late the generator woke.  A read's latency ends
    at its first attempt's answer; ``reads`` holds ``(path, statuses,
    ms)`` with the status of every attempt.
    """
    from repro.io.atomic import atomic_write_text
    from repro.service.spec import JobSpec, job_id_for, job_spec_to_json

    inbox = state / "inbox"
    inbox.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"service-steady|{seed}")
    job_due = _schedule(rng, JOB_INTERVAL_S, seconds)
    read_due = _schedule(rng, READ_INTERVAL_S, seconds)
    specs = [
        JobSpec(pipeline="toy", seed=seed + index, targets=20, hosts=2,
                corpus_format=JOB_FORMATS[index % len(JOB_FORMATS)])
        for index in range(len(job_due))
    ]
    ids = [job_id_for(spec) for spec in specs]
    reads: "list[tuple[str, list[str], float]]" = []
    lags: "list[float]" = []

    def spool(index: int) -> None:
        atomic_write_text(inbox / f"{ids[index]}.json", job_spec_to_json(specs[index]))

    def read(index: int, due: float) -> None:
        job = int((due - READ_LAG_S) // JOB_INTERVAL_S)
        path = f"/jobs/{ids[job]}" if index % 2 and job >= 0 else "/jobs"
        statuses = [_http_get(port, path)]
        first_ms = (time.perf_counter() - start - due) * 1000.0
        while statuses[-1] != "200" and len(statuses) < READ_ATTEMPTS:
            statuses.append(_http_get(port, path))
        reads.append((path, statuses, first_ms))

    events = sorted(
        [(due, spool, (index,)) for index, due in enumerate(job_due)]
        + [(due, read, (index, due)) for index, due in enumerate(read_due)],
        key=lambda event: event[0],
    )
    requests = []
    start = time.perf_counter()
    wall_start = time.time()
    for due, action, args in events:
        delay = start + due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags.append((time.perf_counter() - start - due) * 1000.0)
        request = threading.Thread(target=action, args=args)
        request.start()
        requests.append(request)
    for request in requests:
        request.join()
    return {"ids": ids, "formats": [spec.corpus_format for spec in specs],
            "due": [wall_start + due for due in job_due],
            "reads": reads, "lags": lags}


def read_failures(reads) -> "list[str]":
    """The reads that count as failed operations, one line each.

    A read fails when no attempt was answered 200.  A read answered only
    on a retry is an error; errors are tolerated up to the known race's
    rate (see :data:`READ_ATTEMPTS`), and beyond it every one fails.
    """
    errors = [f"GET {path}: {statuses[0]}" for path, statuses, _ms in reads if statuses[0] != "200"]
    if len(errors) > max(READ_ERROR_FLOOR, READ_ERROR_SHARE * len(reads)):
        return errors
    return [f"GET {path} returned {statuses[-1]}" for path, statuses, _ms in reads if statuses[-1] != "200"]


def repeated_answers(reads) -> int:
    """Attempts beyond a read's first that reached the server.

    Subtracting them from the HTTP handler's call count leaves one call
    per read, whatever the race did.  An attempt with no response never
    reached the handler.
    """
    answered = [sum(not status.startswith("no response") for status in statuses)
                for _path, statuses, _ms in reads]
    return sum(max(0, count - 1) for count in answered)


def _all_terminal(state: pathlib.Path, jobs: int):
    from repro.errors import ServiceError
    from repro.service.store import JobStore

    try:
        store = JobStore.open(state, readonly=True)
    except ServiceError:
        return None
    if len(store.jobs) >= jobs and store.all_terminal():
        return store
    return None


def _service_loop(children: Children, state: pathlib.Path, seed: int, seconds: float,
                  traced: bool) -> dict:
    """Serve + run under the open loop, then drain; returns the raw observations."""
    serve, serve_out, serve_log = children.start({
        "kind": "service", "trace": traced,
        "argv": ["service", "serve", str(state), "--port", "0"],
    })
    found = _wait_for(lambda: re.search(r"http://127\.0\.0\.1:(\d+)", serve_log.read_text()), 60.0, serve)
    if not found:
        raise RuntimeError("service serve never reported its port")
    run, run_out, setup_s = _start_executor(children, state, seed, traced)
    loop = _open_loop(state, int(found.group(1)), seed, seconds)
    # Each poll replays the whole store; a slow poll leaves the CPU to
    # the executor finishing the last jobs.
    store = _wait_for(lambda: _all_terminal(state, len(loop["ids"])), children.remaining(), run, poll=0.2)
    _drain(state)
    run_code = children.wait(run, 60.0)
    serve.send_signal(signal.SIGINT)
    serve_code = children.wait(serve, 30.0)
    if store is None or run_code != 0 or serve_code != 0:
        raise RuntimeError(f"service did not finish (run exit {run_code}, serve exit {serve_code})")
    processes = [json.loads(run_out.read_text()), json.loads(serve_out.read_text())]
    return {**loop, "store": store, "setup_s": setup_s, "processes": processes}


def _job_observations(loop: dict) -> dict:
    """Per-job latency, queue wait and attempt time from the job records."""
    latency, queue_wait, attempt = [], [], []
    done_artifacts: "dict[str, dict[str, str]]" = {}
    for job_id, due in zip(loop["ids"], loop["due"]):
        record = loop["store"].jobs.get(job_id)
        if record is None or record.state != "done":
            continue
        done_at = next(event["at"] for event in record.events if event["op"] == "done")
        first, last = record.attempt_log[0], record.attempt_log[-1]
        latency.append((done_at - due) * 1000.0)
        queue_wait.append((first["started_at"] - due) * 1000.0)
        attempt.append((last["finished_at"] - last["started_at"]) * 1000.0)
        done_artifacts[job_id] = {name: meta["sha256"] for name, meta in sorted(record.artifacts.items())}
    return {"latency": latency, "queue_wait": queue_wait, "attempt": attempt, "artifacts": done_artifacts}


def _service_digests(loop: dict, jobs: dict) -> "dict[str, str]":
    """The job map digest, plus one artifact digest per corpus format."""
    digests = {"jobs": hashlib.sha256(json.dumps(jobs["artifacts"], sort_keys=True).encode()).hexdigest()}
    format_of = dict(zip(loop["ids"], loop["formats"]))
    for fmt in JOB_FORMATS:
        per_format = {json.dumps(artifacts, sort_keys=True)
                      for job_id, artifacts in jobs["artifacts"].items()
                      if format_of[job_id] == fmt}
        # Every job of one format must have produced the same bytes.
        value = per_format.pop() if len(per_format) == 1 else f"{len(per_format)} distinct"
        digests[fmt] = hashlib.sha256(value.encode()).hexdigest()
    return digests


def run_service(seed: int, trace: bool, smoke: bool, seconds: float,
                children: Children, outcome: Outcome) -> None:
    """``service-steady``: the journaled service under an open loop of *seconds*."""
    work = children.work
    setups = []
    if not trace:
        for index in range((1 if smoke else SETUP_SAMPLES) - 1):
            setups.append(_service_setup(children, work / f"setup-{index}", seed))
    loops = [_service_loop(children, work / "state", seed, seconds, traced=False)]
    if trace:
        loops.append(_service_loop(children, work / "state-traced", seed, seconds, traced=True))
    observations = []
    for loop in loops:
        jobs = _job_observations(loop)
        failures = [f"job {job_id} ended {loop['store'].jobs[job_id].state}"
                    if job_id in loop["store"].jobs else f"job {job_id} never admitted"
                    for job_id in loop["ids"] if job_id not in jobs["artifacts"]]
        failures += read_failures(loop["reads"])
        outcome.attempted += len(loop["ids"]) + len(loop["reads"])
        outcome.failed += len(failures)
        for failure in failures[:5]:
            outcome.problem(failure)
        observations.append((loop, jobs, _service_digests(loop, jobs)))

    loop, jobs, digests = observations[0]
    outcome.digests = digests
    lag_p99 = percentile(loop["lags"], 99)
    if lag_p99 > GEN_LAG_LIMIT_MS:
        outcome.problem(f"open-loop generator ran {lag_p99:.1f} ms late at p99; run invalid")
    if not jobs["latency"]:
        outcome.problem("no job finished")
        return
    run_s = statistics.median(jobs["latency"]) / 1000.0
    # Latency of the reads answered 200 at once; the rest are errors.
    read_ms = [ms for _path, statuses, ms in loop["reads"] if statuses[0] == "200"]
    read_errors = [f"GET {path}: {statuses}" for path, statuses, _ms in loop["reads"] if statuses[0] != "200"]
    if trace:
        traced_loop, traced_jobs, traced_digests = observations[1]
        outcome.artifacts_identical = traced_digests == digests
        for process in traced_loop["processes"]:
            for name, value in process["layers"].items():
                outcome.metrics[name] = outcome.metrics.get(name, 0) + value
        # Retries depend on when a read meets a compaction; leaving them
        # out keeps the call counts a function of the workload alone.
        for name in ("service.http.handle.calls", "service.store.open_readonly.calls"):
            outcome.metrics[name] -= repeated_answers(traced_loop["reads"])
        outcome.metrics.update({
            "service.read_errors": len(read_errors),
            "service.queue_wait_ms.p50": round(statistics.median(jobs["queue_wait"]), 3),
            "service.attempt_ms.p50": round(statistics.median(jobs["attempt"]), 3),
            "service.attempt_ms.p95": round(percentile(jobs["attempt"], 95), 3),
            "service.job_ms.p95": round(percentile(jobs["latency"], 95), 3),
            "service.read_ms.p50": round(statistics.median(read_ms), 3),
            "service.read_ms.p90": round(percentile(read_ms, 90), 3),
            "bench.gen_lag_ms.p99": round(lag_p99, 3),
        })
        if traced_jobs["latency"]:
            traced_run_s = statistics.median(traced_jobs["latency"]) / 1000.0
            outcome.metrics["bench.trace_overhead"] = round(traced_run_s / run_s - 1, 4)
        return
    setups.append(loop["setup_s"])
    outcome.samples = {
        "setup_s": setups,
        "job_ms": [round(ms, 3) for ms in jobs["latency"]],
        "read_ms": [round(ms, 3) for ms in read_ms],
        "read_errors": read_errors,
        "gen_lag_ms.p99": round(lag_p99, 3),
    }
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "peak_rss_mb": max(process["rss_kb"] for process in loop["processes"]) / 1024,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload in a scratch directory; returns its result dict."""
    outcome = Outcome()
    WORK.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    children = Children(work, time.perf_counter() + RUN_BUDGET_S)
    try:
        if workload == "synthetic-infer-500k":
            run_infer(seed, trace, smoke, children, outcome)
        elif workload == "service-steady":
            run_service(seed, trace, smoke, SMOKE_SERVICE_S if smoke else seconds, children, outcome)
        else:
            run_campaign(workload, seed, trace, smoke, children, outcome)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        outcome.problem(f"{type(exc).__name__}: {exc}")
    finally:
        children.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    outcome.check_digests(pinned_digests(workload, seed, smoke))
    if trace and outcome.artifacts_identical is not True:
        outcome.problem("traced artifacts differ from the untraced run's")
    units = PER_LAYER if trace else END_TO_END
    missing = [name for name in units if name not in outcome.metrics]
    if trace:
        for name in missing:  # layers this workload never reaches
            outcome.metrics[name] = 0
    elif missing:
        outcome.problem(f"metrics not measured: {missing}")
        outcome.failed = max(outcome.failed, 1)
        outcome.metrics.update({name: 0 for name in missing})
    return outcome.as_dict(units)


def _print_table(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:27s} {name:42s} {shown:>14s} {metric['unit']}", file=sys.stderr)
    for name, value in sorted(result["digests"].items()):
        print(f"{workload:27s} digest {name:35s} {value}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"{workload:27s} PROBLEM: {problem}", file=sys.stderr)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="length of the service-steady open loop; BENCHMARK.json's run_seconds (default 12)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run instead of end-to-end metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="the short test shape: one unit, one set-up sample, the 20k-trace "
                             "inference corpus and a 2 s service loop")
    parser.add_argument("--out", help="also write the full payload (digests, samples) to this JSON file")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(json.loads(args.child))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources at {SRC}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, args.seed, args.seconds, trace, args.smoke)
        _print_table(workload, results[workload])
    if args.out:
        payload = {"benchmark": "bench_e2e", "seed": args.seed, "seconds": args.seconds,
                   "trace": trace, "smoke": args.smoke, "workloads": results}
        pathlib.Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.workload:
        line = {key: results[args.workload][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {f"{workload}/{name}": metric for workload, result in results.items()
                        for name, metric in result["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
