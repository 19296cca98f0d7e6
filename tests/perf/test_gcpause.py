"""The cyclic-GC pause around campaign stages."""

from __future__ import annotations

import gc

import pytest

from repro.errors import CampaignInterrupted
from repro.measure import supervisor
from repro.measure.runner import CampaignRunner
from repro.measure.shard import plan_shards
from repro.measure.substrates import WorkerSpec, toy_substrate
from repro.measure.supervisor import SupervisedCampaignRunner
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


# ----------------------------------------------------------------------
# The supervised path: each worker's shard, the supervisor's speculation
# ----------------------------------------------------------------------
SPEC = WorkerSpec("repro.measure.substrates:toy_substrate", {"hosts": 2})
TRACER_CONFIG = {"max_ttl": 32, "jitter_ms": 0.05, "attempts": 1, "backoff_ms": 0.3}


class ScriptedConn:
    """A worker's pipe end: hands out *messages*, keeps what is sent.

    ``collector`` records whether automatic collection was enabled
    each time the worker asked for its next message.
    """

    def __init__(self, messages):
        self.messages = list(messages)
        self.sent = []
        self.collector = []

    def recv(self):
        self.collector.append(gc.isenabled())
        return self.messages.pop(0)

    def send(self, message):
        self.sent.append(message)


def worker_shards(count=2):
    jobs = [(f"vp{k}", f"198.18.5.{index}") for k in range(2) for index in range(1, 4)]
    shards = plan_shards(jobs, "campaign", shard_size=3)
    return shards[:count]


def test_a_worker_runs_each_shard_paused(collector_enabled, monkeypatch):
    seen = []
    run_shard = supervisor._run_shard

    def recording_run_shard(*args):
        seen.append(gc.isenabled())
        return run_shard(*args)

    monkeypatch.setattr(supervisor, "_run_shard", recording_run_shard)
    conn = ScriptedConn([("shard", shard, 0) for shard in worker_shards()] + [("stop",)])
    supervisor._worker_main(conn, SPEC, None, TRACER_CONFIG, 0.2)
    assert seen == [False, False]
    assert [message[0] for message in conn.sent] == ["ready", "start", "done", "start", "done"]
    # Between shards, and after the last, the collector is back on.
    assert conn.collector == [True, True, True]
    assert gc.isenabled()


def test_a_failing_shard_restores_the_worker_collector(collector_enabled, monkeypatch):
    def failing_run_shard(*args):
        assert not gc.isenabled()
        raise ValueError("probe engine fault")

    monkeypatch.setattr(supervisor, "_run_shard", failing_run_shard)
    conn = ScriptedConn([("shard", worker_shards(1)[0], 0), ("stop",)])
    supervisor._worker_main(conn, SPEC, None, TRACER_CONFIG, 0.2)
    assert conn.sent[-1][0] == "error"
    assert "probe engine fault" in conn.sent[-1][3]
    assert conn.collector == [True, True]
    assert gc.isenabled()


def supervised_toy_runner():
    tracer, vps = toy_substrate(hosts=2)
    runner = SupervisedCampaignRunner(tracer, list(vps.values()), SPEC, workers=1)
    jobs = [(vp, f"198.18.5.{index}") for vp in vps.values() for index in range(1, 4)]
    return runner, jobs


def test_the_supervisor_speculates_paused(collector_enabled, monkeypatch):
    seen = []

    def recording_precompute(self, jobs, stage, flow_id):
        # Speculating nothing leaves every job to the serial replay.
        seen.append(gc.isenabled())

    monkeypatch.setattr(SupervisedCampaignRunner, "_precompute", recording_precompute)
    runner, jobs = supervised_toy_runner()
    traces = runner.run(jobs, stage="campaign")
    assert seen == [False]
    assert len(traces) == len(jobs)
    assert gc.isenabled()


def test_a_failing_speculation_restores_the_collector(collector_enabled, monkeypatch):
    def failing_precompute(self, jobs, stage, flow_id):
        assert not gc.isenabled()
        raise ValueError("pool fault")

    monkeypatch.setattr(SupervisedCampaignRunner, "_precompute", failing_precompute)
    runner, jobs = supervised_toy_runner()
    with pytest.raises(ValueError, match="pool fault"):
        runner.run(jobs, stage="campaign")
    assert gc.isenabled()
