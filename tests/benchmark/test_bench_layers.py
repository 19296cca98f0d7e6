"""The end-to-end benchmark's layer clock: self-time arithmetic and cleanup."""

from __future__ import annotations

import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from layers import TARGETS, LayerClock  # noqa: E402


class ScriptedTimer:
    """A clock that advances only when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_excludes_wrapped_callees():
    timer = ScriptedTimer()
    clock = LayerClock(timer=timer)

    def leaf():
        timer.advance(2.0)

    def middle():
        timer.advance(1.0)
        leaf()
        leaf()
        timer.advance(0.5)

    def outer():
        timer.advance(3.0)
        middle()

    leaf = clock.timed(lambda args, kwargs: "leaf", leaf)
    middle = clock.timed(lambda args, kwargs: "middle", middle)
    outer = clock.timed(lambda args, kwargs: "outer", outer)
    outer()
    outer()

    assert dict(clock.calls) == {"leaf": 4, "middle": 2, "outer": 2}
    assert clock.self_s["leaf"] == pytest.approx(8.0)
    assert clock.self_s["middle"] == pytest.approx(3.0)
    assert clock.self_s["outer"] == pytest.approx(6.0)
    # Self times partition the wall time of the outermost calls.
    assert sum(clock.self_s.values()) == pytest.approx(timer.now)


def test_unlabelled_calls_pass_through_into_the_callers_self_time():
    timer = ScriptedTimer()
    clock = LayerClock(timer=timer)

    def hit():
        timer.advance(1.0)

    hit = clock.timed(lambda args, kwargs: None, hit)
    outer = clock.timed(lambda args, kwargs: "outer", lambda: hit())
    outer()

    assert dict(clock.calls) == {"outer": 1}
    assert clock.self_s["outer"] == pytest.approx(1.0)


def test_an_exception_still_closes_the_frame():
    timer = ScriptedTimer()
    clock = LayerClock(timer=timer)

    def failing():
        timer.advance(1.0)
        raise ValueError("boom")

    failing = clock.timed(lambda args, kwargs: "failing", failing)
    with pytest.raises(ValueError):
        failing()
    assert clock.calls["failing"] == 1
    assert clock._stack() == []


def _target_attributes():
    """The live object behind every wrapped target (class dict entries raw)."""
    import importlib

    found = {}
    for module_name, attr, _label in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            found[attr] = getattr(module, cls_name).__dict__[method]
        else:
            found[attr] = getattr(module, attr)
    return found


def test_install_counts_real_layers_and_uninstall_restores_every_original():
    from repro.measure.runner import CampaignRunner
    from repro.measure.substrates import toy_substrate
    from repro.net import network as network_module
    from repro.net.network import Network
    from repro.service.store import JobStore

    before = _target_attributes()
    seams = (CampaignRunner.__dict__["run"], Network.__dict__["_sssp"], JobStore.__dict__["open"])
    stable_hash = network_module._stable_hash

    clock = LayerClock().install()
    try:
        assert Network.__dict__["route_target"] is not before["Network.route_target"]
        tracer, vps = toy_substrate(hosts=2)
        jobs = [(vp, f"198.18.5.{index}") for vp in vps.values() for index in range(1, 6)]
        CampaignRunner(tracer, list(vps.values())).run(jobs, stage="campaign")
    finally:
        clock.uninstall()

    metrics = clock.metrics()
    assert metrics["measure.trace.calls"] == len(jobs)
    assert metrics["measure.runner.campaign.calls"] == 1
    assert metrics["measure.runner.campaign.jobs"] == len(jobs)
    # One shortest-path tree per source router; every later trace hits the cache.
    assert metrics["net.sssp.calls"] == len(vps)
    assert metrics["net.forwarding_path.calls"] == len(jobs)
    assert all(value >= 0 for name, value in metrics.items() if name.endswith(".self_s"))

    assert _target_attributes() == before
    assert (CampaignRunner.__dict__["run"], Network.__dict__["_sssp"], JobStore.__dict__["open"]) == seams
    assert network_module._stable_hash is stable_hash
