"""CI service soak: SIGKILL the campaign service mid-run, lose nothing.

Drives the resilient campaign service the way the PR's acceptance
criterion demands:

* spools a seeded portfolio of ~10 toy mapping jobs — clean ones,
  jobs whose first attempts chaos-fail, a poison job that must end up
  quarantined as ``failed``, and supervised jobs with seeded
  ``worker_crash`` / ``worker_stall`` chaos;
* runs ``repro service run --until-idle`` as a real subprocess and
  SIGKILLs it on a fixed schedule of mid-run points, restarting
  against the same state directory each time;
* asserts convergence after the final (unkilled) run: every job
  terminal, the poison job ``failed`` with a validated
  quarantine-report failure artifact, no job duplicated or lost, every
  recorded artifact digest matching the bytes on disk, and the
  deterministic jobs' ``corpus.json`` byte-identical to an
  uninterrupted reference run.

Writes a summary plus the final state's metrics/trace exports to
``--artifacts-dir`` so CI uploads them even on failure.

Exit codes: 0 pass, 1 invariant violation (diagnostics on stderr).

Usage::

    python benchmarks/perf/service_soak.py [--artifacts-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Mid-run SIGKILL points (seconds after service start).  Staggered so
#: kills land during interpreter boot, journal replay, mid-campaign,
#: and mid-retry across the restarts.
KILL_SCHEDULE = (0.6, 0.9, 1.2, 1.5, 1.9, 2.4, 3.0)

RUN_TIMEOUT_S = 300


def _portfolio():
    """~10 seeded jobs covering the failure-mode matrix."""
    from repro.service.spec import JobSpec

    jobs = [
        # Clean deterministic jobs: must come out byte-identical.
        JobSpec(pipeline="toy", seed=1, targets=30, hosts=3),
        JobSpec(pipeline="toy", seed=2, targets=24, hosts=2),
        JobSpec(pipeline="toy", seed=3, targets=18, hosts=2),
        JobSpec(pipeline="toy", seed=4, targets=12, hosts=3),
        # Retry path: first attempts chaos-fail, then succeed.
        JobSpec(pipeline="toy", seed=5, targets=16, hosts=2,
                chaos={"fail_attempts": 1}),
        JobSpec(pipeline="toy", seed=6, targets=16, hosts=2,
                chaos={"fail_attempts": 2}),
        # Poison job: exhausts the attempt budget, must be quarantined.
        JobSpec(pipeline="toy", seed=7, targets=8, hosts=2,
                chaos={"fail_attempts": 99}, name="poison"),
        # Faulty substrate (probe loss is deterministic per plan seed).
        JobSpec(pipeline="toy", seed=8, targets=20, hosts=2,
                faults={"probe_loss": 0.2}),
        # Supervised workers with seeded crash/stall chaos.
        JobSpec(pipeline="toy", seed=9, targets=20, hosts=3, workers=2,
                faults={"worker_crash": 0.2, "worker_stall": 0.1}),
        JobSpec(pipeline="toy", seed=10, targets=20, hosts=2, workers=2,
                faults={"worker_crash": 0.15}),
    ]
    return jobs


def _spool(state: pathlib.Path, specs) -> "list[str]":
    from repro.service.spec import job_id_for, job_spec_to_json

    inbox = state / "inbox"
    inbox.mkdir(parents=True, exist_ok=True)
    ids = []
    for spec in specs:
        job_id = job_id_for(spec)
        (inbox / f"{job_id}.json").write_text(job_spec_to_json(spec))
        ids.append(job_id)
    return ids


def _run_args(state: pathlib.Path) -> "list[str]":
    return [
        sys.executable, "-m", "repro", "service", "run", str(state),
        "--until-idle", "--tick-s", "0.001", "--backoff-base-s", "0.001",
        "--max-attempts", "6", "--lease-s", "15",
    ]


def _env():
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_to_completion(state: pathlib.Path) -> None:
    result = subprocess.run(
        _run_args(state), env=_env(), capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if result.returncode != 0:
        raise AssertionError(
            f"service run failed ({result.returncode}): {result.stderr}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifacts-dir",
                        default=str(ROOT / "service-soak-artifacts"))
    args = parser.parse_args()
    artifacts_dir = pathlib.Path(args.artifacts_dir)
    artifacts_dir.mkdir(parents=True, exist_ok=True)

    from repro.obs import sha256_text
    from repro.service.store import JobStore
    from repro.validate.schema import parse_artifact

    specs = _portfolio()
    work = pathlib.Path(tempfile.mkdtemp(prefix="service-soak-"))
    summary = {"kills": 0, "runs": 0}
    failures: "list[str]" = []
    started = time.monotonic()
    try:
        # Reference: the identical portfolio, never interrupted.
        clean = work / "clean"
        ids = _spool(clean, specs)
        _run_to_completion(clean)
        summary["runs"] += 1

        # Victim: SIGKILLed per the schedule, then run to completion.
        state = work / "state"
        _spool(state, specs)
        for delay in KILL_SCHEDULE:
            proc = subprocess.Popen(
                _run_args(state), env=_env(),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            summary["runs"] += 1
            try:
                proc.wait(timeout=delay)
                break  # converged before this kill could land
            except subprocess.TimeoutExpired:
                proc.send_signal(signal.SIGKILL)
                proc.wait()
                summary["kills"] += 1
        _run_to_completion(state)
        summary["runs"] += 1

        store = JobStore.open(state, readonly=True)
        reference = JobStore.open(clean, readonly=True)

        # 1. No duplicated or lost jobs.
        if sorted(store.jobs) != sorted(ids):
            failures.append(
                f"job set mismatch: {sorted(store.jobs)} != {sorted(ids)}"
            )
        # 2. Every job terminal, matching the reference disposition.
        for job_id in ids:
            record = store.jobs.get(job_id)
            if record is None:
                continue
            if not record.terminal:
                failures.append(f"{job_id} not terminal: {record.state}")
                continue
            expected = reference.jobs[job_id].state
            if record.state != expected:
                failures.append(
                    f"{job_id} ended {record.state}, reference {expected}"
                )
        # 3. The poison job failed with a validated quarantine artifact.
        poison = [job_id for job_id in ids
                  if store.jobs[job_id].spec.name == "poison"]
        for job_id in poison:
            record = store.jobs[job_id]
            if record.state != "failed":
                failures.append(f"poison job {job_id} ended {record.state}")
                continue
            report = parse_artifact(
                (state / "jobs" / job_id / "failure.json").read_text(),
                kind="quarantine-report",
            )
            if report["records"][0]["category"] != "poison-job":
                failures.append(f"poison job {job_id}: wrong category")
        # 4. Every recorded artifact digest matches the bytes on disk,
        #    and the terminal record export round-trips its schema.
        for job_id in ids:
            record = store.jobs[job_id]
            job_dir = state / "jobs" / job_id
            parse_artifact((job_dir / "record.json").read_text(),
                           kind="job-record")
            for name, meta in record.artifacts.items():
                text = (job_dir / name).read_text()
                if sha256_text(text) != meta["sha256"]:
                    failures.append(f"{job_id}/{name}: digest mismatch")
        # 5. Deterministic jobs byte-identical to the reference run.
        for job_id in ids:
            record = store.jobs[job_id]
            if record.state != "done" or "corpus.json" not in record.artifacts:
                continue
            victim = (state / "jobs" / job_id / "corpus.json").read_bytes()
            oracle = (clean / "jobs" / job_id / "corpus.json").read_bytes()
            if victim != oracle:
                failures.append(f"{job_id}: corpus diverged from reference")

        store.close()
        reference.close()

        summary.update({
            "jobs": len(ids),
            "done": sum(1 for j in ids if store.jobs[j].state == "done"),
            "failed": sum(1 for j in ids if store.jobs[j].state == "failed"),
            "attempts": sum(store.jobs[j].attempts for j in ids),
            "elapsed_s": round(time.monotonic() - started, 1),
            "failures": failures,
        })
        # The soak's executors run under the default id, "executor".
        for name in ("service-metrics-executor.json",
                     "service-trace-executor.json", "snapshot.json"):
            source = state / name
            if source.exists():
                shutil.copy(source, artifacts_dir / name)
    finally:
        (artifacts_dir / "soak-summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True)
        )
        shutil.rmtree(work, ignore_errors=True)

    if failures:
        for failure in failures:
            print(f"SOAK FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"service soak pass: {summary['jobs']} jobs "
        f"({summary['done']} done / {summary['failed']} failed) survived "
        f"{summary['kills']} SIGKILLs across {summary['runs']} runs in "
        f"{summary['elapsed_s']}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
