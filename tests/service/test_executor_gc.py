"""A service job leaves the cyclic collector as it found it.

A map-cable job runs the pipeline, whose run is a campaign scope: what
its stages froze is unfrozen when it ends.  A toy job runs its stage
outside any scope, so it freezes nothing, and a reference cycle made
during it is collectable once the job is done.
"""

import gc
import weakref

import pytest

from repro.measure.runner import CampaignRunner
from repro.service.executor import JobExecutor
from repro.service.spec import JobSpec


@pytest.fixture
def nothing_frozen():
    was_enabled = gc.isenabled()
    gc.enable()
    gc.unfreeze()
    yield
    gc.unfreeze()
    if not was_enabled:
        gc.disable()


def test_a_map_cable_job_leaves_nothing_frozen(tmp_path, monkeypatch, nothing_frozen):
    from repro.infer.pipeline import CableInferencePipeline

    # A few targets per sweep keep the campaign small.
    for name in ("slash24_targets", "rdns_targets"):
        full = getattr(CableInferencePipeline, name)
        monkeypatch.setattr(CableInferencePipeline, name, lambda self, full=full: full(self)[:8])
    spec = JobSpec(pipeline="map-cable", seed=0, isp="charter", sweep_vps=2)
    result = JobExecutor(tmp_path / "jobs").execute("cable", spec, "full", attempt=1, stage_dir=tmp_path / "stage")
    assert "corpus.json" in result.artifacts
    assert gc.get_freeze_count() == 0


def test_a_toy_job_freezes_nothing_and_its_cycles_are_collected(tmp_path, monkeypatch, nothing_frozen):
    class Node:
        pass

    cycles = []
    run_trace = CampaignRunner._run_trace

    def cyclic_trace(self, vp, target, flow_id):
        node = Node()
        node.self = node
        cycles.append(weakref.ref(node))
        return run_trace(self, vp, target, flow_id)

    monkeypatch.setattr(CampaignRunner, "_run_trace", cyclic_trace)
    spec = JobSpec(pipeline="toy", seed=1, targets=4, hosts=2)
    result = JobExecutor(tmp_path / "jobs").execute("toy", spec, "full", attempt=1, stage_dir=tmp_path / "stage")
    assert "corpus.json" in result.artifacts
    assert gc.get_freeze_count() == 0
    assert cycles
    gc.collect()
    assert all(ref() is None for ref in cycles)
