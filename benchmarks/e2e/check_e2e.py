"""Regression gate over ``bench_e2e.py --out`` payloads.

Gates only what does not depend on the machine, never absolute seconds:

* every metric ``BENCHMARK.json`` names is present with its unit, for
  every workload in the payload (``end_to_end`` metrics for an untraced
  payload, ``per_layer`` metrics for a ``--trace 1`` payload);
* the pinned digests (``bench_e2e.pinned_digests``) equal the payload's;
* nothing failed: ``failed == 0`` and the run reported itself correct;
* a traced payload's artifacts are identical to the untraced unit's.

Usage::

    python benchmarks/e2e/check_e2e.py PAYLOAD [PAYLOAD ...]

Exits 0 when every payload passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from bench_e2e import ROOT, pinned_digests  # noqa: E402


def check_payload(payload: dict, benchmark: dict) -> "list[str]":
    """Every gate violation in one payload, as one line each."""
    problems = []
    section = "per_layer" if payload["trace"] else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in benchmark[section]}
    known = {workload["name"] for workload in benchmark["workloads"]}
    if not payload["workloads"]:
        problems.append("payload holds no workload")
    for name, result in sorted(payload["workloads"].items()):
        if name not in known:
            problems.append(f"{name}: not a BENCHMARK.json workload")
            continue
        for metric, unit in units.items():
            got = result["metrics"].get(metric)
            if got is None:
                problems.append(f"{name}: metric {metric} missing")
            elif got["unit"] != unit:
                problems.append(f"{name}: metric {metric} in {got['unit']}, expected {unit}")
        expected = pinned_digests(name, payload["seed"], payload["smoke"])
        for digest, value in sorted(expected.items()):
            if result["digests"].get(digest) != value:
                problems.append(f"{name}: digest {digest} is {result['digests'].get(digest)}, pinned {value}")
        if result["failed"] or not result["correct"]:
            problems.append(f"{name}: {result['failed']} of {result['attempted']} failed; "
                            f"problems: {result['problems']}")
        if payload["trace"] and result["artifacts_identical"] is not True:
            problems.append(f"{name}: traced artifacts differ from the untraced run's")
    return problems


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("payloads", nargs="+", help="bench_e2e.py --out files")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"), help="the benchmark definition")
    args = parser.parse_args(argv)
    benchmark = json.loads(pathlib.Path(args.benchmark).read_text())
    failed = False
    for path in args.payloads:
        problems = check_payload(json.loads(pathlib.Path(path).read_text()), benchmark)
        for problem in problems:
            print(f"FAIL {path}: {problem}")
        if not problems:
            print(f"ok   {path}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
