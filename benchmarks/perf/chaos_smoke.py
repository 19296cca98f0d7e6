"""CI chaos smoke: seeded worker crashes + stalls must not move the corpus.

Runs the toy-substrate campaign twice:

* serially, with the same fault plan, to produce the oracle corpus;
* under the :class:`SupervisedCampaignRunner` (2 spawned workers,
  an aggressive heartbeat timeout) with seeded ``worker_crash``
  and ``worker_stall`` chaos.

Asserts that chaos actually happened (crashes and stalls were observed
and recovered), that every shard completed (nothing poisoned), that
the supervised corpus is byte-identical to the serial oracle's, and
that its campaign health equals the oracle's apart from the
supervisor's own bookkeeping: probe loss makes every trace's fault
counts cross the worker pipe, so the cost ledger is checked too.  Writes
the run's CampaignHealth, quarantine report, and metrics to
``--artifacts-dir`` so CI uploads them for post-mortem even on failure.

Exit codes: 0 pass, 1 assertion failure (diagnostics on stderr).

Usage::

    python benchmarks/perf/chaos_smoke.py [--artifacts-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Seeded so every CI run injects the identical chaos schedule.
PLAN = {"seed": 11, "probe_loss": 0.1, "worker_crash": 0.25, "worker_stall": 0.15}
#: Health fields only the supervisor fills in; the pool's schedule,
#: not the campaign, decides them.
SUPERVISOR_HEALTH = ("shards_", "workers_")
SUPERVISOR_FAULTS = ("worker_",)
TARGETS = [f"198.18.5.{i}" for i in range(1, 41)]


def _jobs(vps):
    return [(vp, target) for vp in vps.values() for target in TARGETS]


def _corpus(traces) -> str:
    from repro.io.checkpoint import trace_to_dict

    return json.dumps([trace_to_dict(t) for t in traces], sort_keys=True)


def _ledger(health) -> dict:
    """*health* as a dict, without the supervisor's own bookkeeping."""
    payload = {name: value for name, value in health.as_dict().items() if not name.startswith(SUPERVISOR_HEALTH)}
    faults = payload["fault_stats"]
    payload["fault_stats"] = {name: value for name, value in faults.items() if not name.startswith(SUPERVISOR_FAULTS)}
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifacts-dir", default=str(ROOT / "chaos-artifacts"))
    args = parser.parse_args()

    from repro.faults import FaultInjector, FaultPlan
    from repro.io.atomic import atomic_write_text
    from repro.measure.runner import CampaignRunner
    from repro.measure.substrates import WorkerSpec, toy_substrate
    from repro.measure.supervisor import SupervisedCampaignRunner
    from repro.obs import MetricsRegistry

    tracer, vps = toy_substrate(hosts=3)
    tracer.network.attach_faults(FaultInjector(FaultPlan(**PLAN)))
    oracle_runner = CampaignRunner(tracer, list(vps.values()))
    oracle = _corpus(oracle_runner.run(_jobs(vps), stage="s"))

    tracer, vps = toy_substrate(hosts=3)
    tracer.network.attach_faults(FaultInjector(FaultPlan(**PLAN)))
    metrics = MetricsRegistry()
    runner = SupervisedCampaignRunner(
        tracer, list(vps.values()),
        worker_spec=WorkerSpec(
            "repro.measure.substrates:toy_substrate", {"hosts": 3}
        ),
        workers=2, shard_size=10,
        heartbeat_interval=0.05, heartbeat_timeout=1.0,
        # Fates are drawn per (shard, attempt), so at these rates a
        # shard can lose 3 draws in a row; 6 retries makes recovery
        # certain for this seed while still exercising the retry path.
        max_shard_retries=6,
        metrics=metrics,
    )
    start = time.monotonic()
    corpus = _corpus(runner.run(_jobs(vps), stage="s"))
    elapsed = round(time.monotonic() - start, 2)

    artifacts = pathlib.Path(args.artifacts_dir)
    artifacts.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        artifacts / "campaign-health.json",
        json.dumps(runner.health.as_dict(), indent=2, sort_keys=True) + "\n",
    )
    atomic_write_text(
        artifacts / "quarantine.json",
        json.dumps(runner.quarantine.as_dict(), indent=2, sort_keys=True)
        + "\n",
    )
    atomic_write_text(
        artifacts / "metrics.json",
        json.dumps(metrics.snapshot(), indent=2, sort_keys=True) + "\n",
    )

    health = runner.health
    print(
        f"chaos smoke: {elapsed}s, crashes={health.workers_crashed} "
        f"stalls={health.workers_stalled} retried={health.shards_retried} "
        f"poisoned={health.shards_poisoned} "
        f"spawned={health.workers_spawned}",
        file=sys.stderr,
    )
    failures = []
    if health.workers_crashed < 1:
        failures.append("no worker crashes observed — chaos did not fire")
    if health.workers_stalled < 1:
        failures.append("no worker stalls observed — chaos did not fire")
    if health.shards_poisoned:
        failures.append(
            f"{health.shards_poisoned} shard(s) poisoned — retries "
            "should have recovered seeded chaos at these rates"
        )
    if corpus != oracle:
        failures.append("supervised corpus diverged from the serial oracle")
    expected, got = _ledger(oracle_runner.health), _ledger(health)
    if got != expected:
        diverged = sorted(name for name in expected if got.get(name) != expected[name])
        failures.append(f"supervised health diverged from the serial oracle in {', '.join(diverged)}")
        print(f"supervised health: {got}\noracle health: {expected}", file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("chaos smoke passed: corpus and health identical, all shards recovered", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
