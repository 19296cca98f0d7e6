"""The cyclic-GC pause around campaign stages."""

from __future__ import annotations

import gc

import pytest

from repro.errors import CampaignInterrupted
from repro.measure.runner import CampaignRunner
from repro.measure.substrates import toy_substrate
from repro.perf.gcpause import gc_paused


@pytest.fixture
def collector_enabled():
    """Run with automatic collection on, and leave it on."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.fixture
def collector_disabled():
    """Run with automatic collection off, and restore it afterwards."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def toy_jobs(hosts=2, per_vp=5):
    tracer, vps = toy_substrate(hosts=hosts)
    jobs = [(vp, f"198.18.5.{index}") for vp in vps.values() for index in range(1, per_vp + 1)]
    return tracer, list(vps.values()), jobs


def test_an_enabled_collector_is_paused_then_restored(collector_enabled):
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled(collector_disabled):
    with gc_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_nested_pauses_restore_only_at_the_outermost(collector_enabled):
    with gc_paused():
        with gc_paused():
            pass
        assert not gc.isenabled()
    assert gc.isenabled()


def test_an_exception_restores_the_collector(collector_enabled):
    with pytest.raises(ValueError):
        with gc_paused():
            raise ValueError("boom")
    assert gc.isenabled()


def test_a_stage_runs_paused(collector_enabled):
    tracer, vps, jobs = toy_jobs()
    seen = []
    trace = tracer.trace

    def recording_trace(*args, **kwargs):
        seen.append(gc.isenabled())
        return trace(*args, **kwargs)

    tracer.trace = recording_trace
    CampaignRunner(tracer, vps).run(jobs, stage="campaign")
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_an_interrupted_stage_restores_the_collector_state(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        tracer, vps, jobs = toy_jobs()
        runner = CampaignRunner(tracer, vps, stop_after=3)
        with pytest.raises(CampaignInterrupted):
            runner.run(jobs, stage="campaign")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_stage_leaves_no_cyclic_garbage(collector_enabled):
    # The pause is safe only because a stage's traces are acyclic: a
    # collection right after the stage must find nothing to free.
    tracer, vps, jobs = toy_jobs(hosts=3, per_vp=20)
    runner = CampaignRunner(tracer, vps)
    gc.collect()
    traces = runner.run(jobs, stage="campaign")
    assert gc.collect() == 0
    assert len(traces) == len(jobs)
