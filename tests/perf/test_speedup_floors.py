"""The speed-floor script's verdict on scripted timings, and its pins."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "speedup_floors.py"


@pytest.fixture(scope="module")
def floors():
    spec = importlib.util.spec_from_file_location("speedup_floors", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(floors, name, slow_s, fast_s):
    digest = floors.FLOORS[name].digest
    slow = [{"seconds": slow_s + extra, "digest": digest} for extra in (0.3, 0.0, 0.1)]
    fast = [{"seconds": fast_s + extra, "digest": digest} for extra in (0.0, 0.2, 0.1)]
    return slow, fast


def test_floors_and_pins_are_unchanged(floors):
    assert floors.FLOORS == {
        "supervised": ("serial", "supervised", 1.5, "c9aa8bd07fba26a5e78bcf61aafbb175136e8595233567e7fd6d63e55c0ed447"),
        "columnar": ("object", "columnar", 3.0, "ef50ca27ee3c0ef261599c22d169832f95e363c72d77a26133db4facb4813f4a"),
    }
    assert floors.CAMPAIGN == {"seed": 0, "jobs": 4000, "pace_ms": 1.0, "sweep_vps": 4, "workers": 4}
    assert floors.INFERENCE["traces"] == 500000 and floors.REPEATS == 3


@pytest.mark.parametrize("name, slow_s, fast_s", [("supervised", 3.0, 2.0), ("columnar", 6.0, 2.0)])
def test_a_run_at_the_floor_passes(floors, name, slow_s, fast_s):
    assert slow_s / fast_s == floors.FLOORS[name].ratio
    assert floors.verdict(name, *_runs(floors, name, slow_s, fast_s)) == []


@pytest.mark.parametrize("name", ["supervised", "columnar"])
def test_a_run_below_the_floor_fails(floors, name):
    ratio = floors.FLOORS[name].ratio
    failures = floors.verdict(name, *_runs(floors, name, ratio * 0.99, 1.0))
    assert len(failures) == 1
    assert f"below the {ratio:.1f}x floor" in failures[0]


def test_the_fastest_run_of_each_side_counts(floors):
    slow = [{"seconds": s, "digest": floors.FLOORS["columnar"].digest} for s in (9.0, 3.0)]
    fast = [{"seconds": s, "digest": floors.FLOORS["columnar"].digest} for s in (1.1, 0.5)]
    assert floors.verdict("columnar", slow, fast) == []
    # 9.0 / 1.1 would pass; the slow side's best run, 3.0 s, does not.
    assert floors.verdict("columnar", slow, fast[:1]) == [
        "columnar: columnar is 2.73x object, below the 3.0x floor"
    ]


@pytest.mark.parametrize("name", ["supervised", "columnar"])
def test_a_digest_off_the_pin_fails_even_when_fast(floors, name):
    slow, fast = _runs(floors, name, 100.0, 1.0)
    fast[1] = dict(fast[1], digest="0" * 64)
    failures = floors.verdict(name, slow, fast)
    assert failures == [f"{name}: {floors.FLOORS[name].fast} run digest 000000000000… != pinned "
                        f"{floors.FLOORS[name].digest[:12]}…"]
