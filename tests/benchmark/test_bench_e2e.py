"""Smoke runs of the end-to-end benchmark and its regression gate.

The two cheap workloads run in their smoke shapes: ``synthetic-infer-500k``
over the 20k-trace corpus, and ``service-steady`` for a 2 s open loop.
"""

from __future__ import annotations

import copy
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH_DIR = ROOT / "benchmarks" / "e2e"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import bench_e2e  # noqa: E402
from check_e2e import check_payload  # noqa: E402

SMOKE_WORKLOADS = ("synthetic-infer-500k", "service-steady")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path_factory, workload: str, trace: int, tag: str) -> "tuple[dict, str, str]":
    out = tmp_path_factory.mktemp("bench") / f"{workload}-{tag}.json"
    command = [sys.executable, str(BENCH_DIR / "bench_e2e.py"), "--workload", workload,
               "--trace", str(trace), "--out", str(out), "--smoke"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(out.read_text()), proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return {workload: _run(tmp_path_factory, workload, 0, "untraced") for workload in SMOKE_WORKLOADS}


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    return {
        workload: [_run(tmp_path_factory, workload, 1, f"traced{index}")[0] for index in range(2)]
        for workload in SMOKE_WORKLOADS
    }


def test_benchmark_json_names_match_the_code():
    assert [workload["name"] for workload in BENCHMARK["workloads"]] == list(bench_e2e.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench_e2e.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == bench_e2e.PER_LAYER


def test_read_errors_fail_once_they_exceed_the_known_race_rate():
    ok = ("/jobs", ["200"], 1.0)
    retried = ("/jobs", ["502 error: journal names unknown job", "200"], 1.0)
    lost = ("/jobs", ["no response: refused", "502 error", "502 error"], 1.0)
    limit = bench_e2e.READ_ERROR_SHARE * 100

    assert bench_e2e.read_failures([ok] * 100) == []
    # A read answered on a retry is tolerated up to the limit...
    assert bench_e2e.read_failures([retried] * int(limit) + [ok] * (100 - int(limit))) == []
    # ...and past it every such read counts as failed.
    assert len(bench_e2e.read_failures([retried] * (int(limit) + 1) + [ok] * 99)) == int(limit) + 1
    # A read never answered 200 always fails.
    assert bench_e2e.read_failures([lost] + [ok] * 99) == ["GET /jobs returned 502 error"]
    # Only answered attempts beyond the first reached the HTTP handler.
    assert bench_e2e.repeated_answers([ok, retried, lost]) == 2


@pytest.mark.parametrize("workload", SMOKE_WORKLOADS)
def test_untraced_smoke_prints_every_end_to_end_metric(untraced, workload):
    payload, stdout, stderr = untraced[workload]
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for name, unit in bench_e2e.END_TO_END.items():
        assert line["metrics"][name]["unit"] == unit
        assert line["metrics"][name]["value"] > 0
        assert any(row.split()[1:2] == [name] and row.endswith(f" {unit}") for row in stderr.splitlines())
    assert check_payload(payload, BENCHMARK) == []


def test_gate_rejects_a_tampered_digest(untraced):
    payload = copy.deepcopy(untraced["synthetic-infer-500k"][0])
    payload["workloads"]["synthetic-infer-500k"]["digests"]["regions"] = "0" * 64
    problems = check_payload(payload, BENCHMARK)
    assert len(problems) == 1 and "digest regions" in problems[0]


def test_gate_rejects_a_failed_operation(untraced):
    payload = copy.deepcopy(untraced["service-steady"][0])
    payload["workloads"]["service-steady"]["failed"] = 1
    assert any("1 of" in problem for problem in check_payload(payload, BENCHMARK))


@pytest.mark.parametrize("workload", SMOKE_WORKLOADS)
def test_traced_smoke_repeats_its_call_counts(traced_twice, workload):
    first, second = traced_twice[workload]
    for payload in (first, second):
        assert check_payload(payload, BENCHMARK) == []
        assert payload["workloads"][workload]["artifacts_identical"] is True
    calls = [
        {name: metric["value"] for name, metric in payload["workloads"][workload]["metrics"].items()
         if name.endswith(".calls")}
        for payload in (first, second)
    ]
    assert calls[0] == calls[1]
    assert any(calls[0].values())
