"""The cyclic-GC pause around campaign stages, and the campaign scope
that freezes what each stage built."""

from __future__ import annotations

import gc

import pytest
from interrupts import interrupt_after

from repro.errors import CampaignInterrupted
from repro.measure import supervisor
from repro.measure.runner import CampaignRunner
from repro.measure.shard import plan_shards
from repro.measure.substrates import WorkerSpec, toy_substrate
from repro.measure.supervisor import SupervisedCampaignRunner
from repro.perf.gcpause import campaign_scope, gc_paused


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


@pytest.fixture
def nothing_frozen():
    """Start with an empty permanent generation, and leave one."""
    gc.unfreeze()
    yield
    assert gc.get_freeze_count() == 0
    gc.unfreeze()


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
        runner = interrupt_after(CampaignRunner(tracer, vps), 3)
        with pytest.raises(CampaignInterrupted):
            runner.run(jobs, stage="campaign")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_stage_leaves_no_cyclic_garbage(collector_enabled):
    # The pause is safe only because a stage's traces are acyclic: a
    # collection right after the stage must find nothing to free.
    # Outside a campaign scope, or the freeze would hide them from it.
    tracer, vps, jobs = toy_jobs(hosts=3, per_vp=20)
    runner = CampaignRunner(tracer, vps)
    gc.collect()
    traces = runner.run(jobs, stage="campaign")
    assert gc.collect() == 0
    assert len(traces) == len(jobs)


# ----------------------------------------------------------------------
# The campaign scope: a stage freezes what it built, the run unfreezes
# ----------------------------------------------------------------------
def test_nested_scopes_unfreeze_only_at_the_outermost(collector_enabled, nothing_frozen):
    callbacks = list(gc.callbacks)
    with campaign_scope() as outer:
        with campaign_scope() as inner:
            assert inner is outer
            with gc_paused():
                built = [[index] for index in range(100)]
        assert gc.get_freeze_count() >= len(built)
        assert len(gc.callbacks) == len(callbacks) + 1
    assert gc.get_freeze_count() == 0
    assert gc.callbacks == callbacks


def test_a_stage_inside_a_scope_freezes_its_traces(collector_enabled, nothing_frozen):
    tracer, vps, jobs = toy_jobs()
    with campaign_scope():
        traces = CampaignRunner(tracer, vps).run(jobs, stage="campaign")
        # Frozen objects sit in no generation.
        scanned = {id(obj) for obj in gc.get_objects()}
        tracked = [trace for trace in traces if gc.is_tracked(trace)]
        assert len(tracked) == len(traces) > 0
        assert not any(id(trace) in scanned for trace in tracked)
    assert gc.get_freeze_count() == 0


def test_a_stage_outside_any_scope_freezes_nothing(collector_enabled, nothing_frozen):
    # A frozen cycle is never collected: stages run on their own (the
    # service's toy jobs) would leak their cyclic garbage for good.
    tracer, vps, jobs = toy_jobs()
    traces = CampaignRunner(tracer, vps).run(jobs, stage="campaign")
    assert traces
    assert gc.get_freeze_count() == 0


def test_a_scope_leaves_what_it_found_frozen_alone(collector_enabled, nothing_frozen):
    # Someone else's frozen objects stay frozen, and this scope then
    # freezes nothing of its own: its unfreeze could not tell them apart.
    gc.freeze()
    found = gc.get_freeze_count()
    try:
        with campaign_scope():
            with gc_paused():
                built = [[index] for index in range(100)]
            assert gc.get_freeze_count() == found
        assert gc.get_freeze_count() == found
        assert built
    finally:
        gc.unfreeze()


def test_a_raising_stage_in_a_scope_is_unfrozen_by_the_scope(collector_enabled, nothing_frozen):
    callbacks = list(gc.callbacks)
    with pytest.raises(ValueError):
        with campaign_scope():
            with gc_paused():
                raise ValueError("boom")
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0
    assert gc.callbacks == callbacks


def test_the_scope_counts_collections_by_generation(collector_enabled, nothing_frozen):
    with campaign_scope() as activity:
        gc.collect(0)
        gc.collect(2)
    collections = list(activity.collections)
    assert collections[0] >= 1 and collections[2] >= 1
    assert activity.seconds > 0
    gc.collect()
    # The callback is gone with the scope.
    assert activity.collections == collections


# ----------------------------------------------------------------------
# The pipeline's run is one scope
# ----------------------------------------------------------------------
@pytest.fixture
def small_pipeline(internet, standard_vps, monkeypatch):
    """A charter campaign of eight targets per sweep, and its seen
    freeze counts: one as phase 2 starts."""
    from repro.infer.pipeline import CableInferencePipeline

    for name in ("slash24_targets", "rdns_targets"):
        full = getattr(CableInferencePipeline, name)
        monkeypatch.setattr(CableInferencePipeline, name, lambda self, full=full: full(self)[:8])
    seen = []
    resolve = CableInferencePipeline.resolve_aliases

    def recording_resolve(self, traces):
        seen.append(gc.get_freeze_count())
        return resolve(self, traces)

    monkeypatch.setattr(CableInferencePipeline, "resolve_aliases", recording_resolve)

    def build(**options):
        pipeline = CableInferencePipeline(internet.network, internet.charter, standard_vps, sweep_vps=2, **options)
        return pipeline, seen

    return build


def cut_runner(monkeypatch, error, after=5):
    """Make the pipeline's runner raise *error* inside a later trace."""
    from repro.infer.pipeline import CableInferencePipeline

    make_runner = CableInferencePipeline._make_runner

    def cutting(self):
        runner = interrupt_after(make_runner(self), after)
        run_trace = runner._run_trace

        def raising(*args):
            try:
                return run_trace(*args)
            except KeyboardInterrupt:
                raise error from None

        runner._run_trace = raising
        return runner

    monkeypatch.setattr(CableInferencePipeline, "_make_runner", cutting)


def test_a_pipeline_run_freezes_its_stages_then_unfreezes(collector_enabled, nothing_frozen, small_pipeline):
    callbacks = list(gc.callbacks)
    pipeline, seen = small_pipeline()
    result = pipeline.run()
    assert seen[0] >= len(result.traces) > 0
    assert gc.get_freeze_count() == 0
    assert gc.callbacks == callbacks
    assert sum(pipeline.gc_activity.collections) > 0


@pytest.mark.parametrize(
    "error, raised",
    [(KeyboardInterrupt(), CampaignInterrupted), (ValueError("probe fault"), ValueError)],
    ids=["interrupted", "raising"],
)
def test_a_cut_pipeline_run_unfreezes(collector_enabled, nothing_frozen, small_pipeline, monkeypatch, error, raised):
    callbacks = list(gc.callbacks)
    cut_runner(monkeypatch, error)
    pipeline, _ = small_pipeline()
    with pytest.raises(raised):
        pipeline.run()
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0
    assert gc.callbacks == callbacks


def test_a_resumed_pipeline_run_unfreezes(collector_enabled, nothing_frozen, small_pipeline, monkeypatch, tmp_path):
    path = tmp_path / "campaign.json"
    with monkeypatch.context() as patch:
        cut_runner(patch, KeyboardInterrupt(), after=12)
        pipeline, _ = small_pipeline(checkpoint_path=path)
        with pytest.raises(CampaignInterrupted):
            pipeline.run()
    assert gc.get_freeze_count() == 0
    pipeline, seen = small_pipeline(checkpoint_path=path, resume=True)
    result = pipeline.run()
    assert result.health.resumed
    assert seen[0] >= len(result.traces) > 0
    assert gc.get_freeze_count() == 0


# ----------------------------------------------------------------------
# The supervised path: each worker's shard, the supervisor's speculation
# ----------------------------------------------------------------------
SPEC = WorkerSpec("repro.measure.substrates:toy_substrate", {"hosts": 2})
TRACER_CONFIG = {"max_ttl": 32, "jitter_ms": 0.05, "attempts": 1, "backoff_ms": 0.3}


class ScriptedConn:
    """A worker's pipe end: hands out *messages*, keeps what is sent.

    ``collector`` records whether automatic collection was enabled
    each time the worker asked for its next message, and ``frozen``
    the freeze count.  Past the last message the pipe is closed.
    """

    def __init__(self, messages):
        self.messages = list(messages)
        self.sent = []
        self.collector = []
        self.frozen = []

    def recv(self):
        self.collector.append(gc.isenabled())
        self.frozen.append(gc.get_freeze_count())
        if not self.messages:
            raise EOFError
        return self.messages.pop(0)

    def send(self, message):
        self.sent.append(message)


def worker_shards(count=2):
    jobs = [(f"vp{k}", f"198.18.5.{index}") for k in range(2) for index in range(1, 4)]
    shards = plan_shards(jobs, "campaign", shard_size=3)
    return shards[:count]


def test_a_worker_runs_each_shard_paused(collector_enabled, nothing_frozen, monkeypatch):
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
    # The first shard froze the substrate; the worker's exit unfroze it.
    assert conn.frozen[0] == 0 and conn.frozen[1] > 0
    assert gc.get_freeze_count() == 0


def test_a_worker_whose_pipe_closes_unfreezes(collector_enabled, nothing_frozen):
    conn = ScriptedConn([("shard", worker_shards(1)[0], 0)])
    supervisor._worker_main(conn, SPEC, None, TRACER_CONFIG, 0.2)
    assert [message[0] for message in conn.sent] == ["ready", "start", "done"]
    assert conn.frozen[-1] > 0
    assert gc.get_freeze_count() == 0


def test_a_failing_shard_restores_the_worker_collector(collector_enabled, nothing_frozen, monkeypatch):
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
    assert conn.frozen[-1] > 0
    assert gc.get_freeze_count() == 0


def supervised_toy_runner():
    tracer, vps = toy_substrate(hosts=2)
    runner = SupervisedCampaignRunner(tracer, list(vps.values()), SPEC, workers=1)
    jobs = [(vp, f"198.18.5.{index}") for vp in vps.values() for index in range(1, 4)]
    return runner, jobs


def test_the_supervisor_speculates_paused(collector_enabled, monkeypatch):
    seen = []

    def recording_pool(self, shards, attempts, outcomes):
        seen.append(gc.isenabled())
        for shard in shards:
            # Settled with no results: the replay probes these itself.
            self._unsettled.difference_update(shard.jobs)
            yield

    monkeypatch.setattr(SupervisedCampaignRunner, "_run_pool", recording_pool)
    runner, jobs = supervised_toy_runner()
    traces = runner.run(jobs, stage="campaign")
    assert seen == [False]
    assert len(traces) == len(jobs)
    assert gc.isenabled()


def test_a_failing_speculation_restores_the_collector(collector_enabled, monkeypatch):
    def failing_pool(self, shards, attempts, outcomes):
        assert not gc.isenabled()
        raise ValueError("pool fault")
        yield

    monkeypatch.setattr(SupervisedCampaignRunner, "_run_pool", failing_pool)
    runner, jobs = supervised_toy_runner()
    with pytest.raises(ValueError, match="pool fault"):
        runner.run(jobs, stage="campaign")
    assert gc.isenabled()
