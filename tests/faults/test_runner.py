"""CampaignRunner: failover, checkpoint/resume, graceful degradation."""

import pytest

from repro.errors import CampaignInterrupted, CheckpointError, MeasurementError
from repro.faults import FaultInjector, FaultPlan
from repro.io.checkpoint import CampaignCheckpoint, trace_to_dict
from repro.measure.runner import CampaignRunner
from repro.measure.substrates import WorkerSpec, toy_substrate
from repro.measure.traceroute import Tracerouter

TARGETS = ["10.0.0.14", "10.0.0.6", "198.18.5.1", "198.18.5.9"]


def _jobs(vps, targets=TARGETS):
    return [(vp, target) for vp in vps for target in targets]


class TestFaultFreePath:
    def test_matches_plain_nested_loop(self, fleet):
        net, _routers, vps = fleet
        manual = []
        tracer = Tracerouter(net)
        for vp, target in _jobs(vps):
            trace = tracer.trace(vp.host, target, src_address=vp.src_address)
            trace.vp_name = vp.name
            if trace.hops:
                manual.append(trace)

        runner = CampaignRunner(Tracerouter(net), vps)
        ran = runner.run(_jobs(vps), stage="s")
        assert [trace_to_dict(t) for t in ran] == [
            trace_to_dict(t) for t in manual
        ]
        assert not runner.health.degraded
        assert runner.health.targets_reassigned == 0

    def test_empty_traces_counted_not_returned(self, fleet):
        net, _routers, vps = fleet
        runner = CampaignRunner(Tracerouter(net), vps[:1])
        traces = runner.run([(vps[0], "203.0.113.1")], stage="s")
        assert traces == []
        assert runner.health.empty_traces == 1
        assert runner.health.traces_run == 1


class TestFailover:
    def _plan(self):
        # Seed 1 dooms vp0 (first in job order), so its death leaves
        # pending jobs to fail over; after=5 kills it two traces in.
        return FaultPlan(seed=1, vp_dropout=1, vp_dropout_after=5)

    def test_dead_vp_jobs_reassigned(self, fleet):
        net, _routers, vps = fleet
        net.attach_faults(FaultInjector(self._plan()))
        runner = CampaignRunner(Tracerouter(net), vps)
        traces = runner.run(_jobs(vps), stage="s")
        doomed = runner.health.vps_lost
        assert len(doomed) == 1
        # Every target kept full coverage: one trace per (vp, target) job.
        assert len(traces) == len(_jobs(vps))
        assert runner.health.targets_reassigned > 0
        # Reassigned jobs ran from a survivor, not the dead VP.
        dead = doomed[0]
        executed_after_death = [
            t for t in traces if t.vp_name != dead
        ]
        assert executed_after_death

    def test_no_failover_skips_instead(self, fleet):
        net, _routers, vps = fleet
        net.attach_faults(FaultInjector(self._plan()))
        runner = CampaignRunner(Tracerouter(net), vps, failover=False)
        traces = runner.run(_jobs(vps), stage="s")
        assert runner.health.targets_skipped > 0
        assert runner.health.degraded
        assert len(traces) < len(_jobs(vps))


class TestDegradation:
    def test_below_min_vps_returns_partial(self, fleet):
        net, _routers, vps = fleet
        plan = FaultPlan(seed=1, vp_dropout=1, vp_dropout_after=5)
        net.attach_faults(FaultInjector(plan))
        runner = CampaignRunner(Tracerouter(net), vps, min_vps=3)
        traces = runner.run(_jobs(vps), stage="s")  # must not raise
        assert runner.health.degraded
        assert runner.health.targets_skipped > 0
        assert 0 < len(traces) < len(_jobs(vps))


class TestRefusedSettings:
    """The opener refuses workers it cannot start or chaos it cannot inject."""

    def test_workers_need_a_worker_spec(self, fleet):
        net, _routers, vps = fleet
        with pytest.raises(MeasurementError, match="worker_spec"):
            CampaignRunner.open(Tracerouter(net), vps, workers=1)

    @pytest.mark.parametrize("chaos", ["worker_crash", "worker_stall", "worker_slow"])
    def test_worker_chaos_needs_workers(self, fleet, chaos):
        net, _routers, vps = fleet
        net.attach_faults(FaultInjector(FaultPlan(**{chaos: 0.5})))
        with pytest.raises(MeasurementError, match="needs supervised workers"):
            CampaignRunner.open(Tracerouter(net), vps)


class TestCheckpointResume:
    PLAN = FaultPlan(seed=1, probe_loss=0.15, vp_dropout=1,
                     vp_dropout_after=5)

    def _uninterrupted(self, net, vps):
        net.attach_faults(FaultInjector(self.PLAN))
        runner = CampaignRunner(Tracerouter(net), vps)
        return runner.run(_jobs(vps), stage="s")

    def test_interrupt_saves_checkpoint(self, fleet, tmp_path):
        net, _routers, vps = fleet
        net.attach_faults(FaultInjector(self.PLAN))
        checkpoint = CampaignCheckpoint(tmp_path / "camp.json")
        runner = CampaignRunner(
            Tracerouter(net), vps, checkpoint=checkpoint, stop_after=5
        )
        with pytest.raises(CampaignInterrupted):
            runner.run(_jobs(vps), stage="s")
        loaded = CampaignCheckpoint.load(tmp_path / "camp.json")
        assert len(loaded.stage_done("s")) == 5
        assert not loaded.stage_complete("s")
        assert loaded.health["interrupted"] is True

    def test_resume_converges_on_uninterrupted_output(self, fleet, tmp_path):
        net, _routers, vps = fleet
        reference = [
            trace_to_dict(t) for t in self._uninterrupted(net, vps)
        ]

        # Kill a second campaign mid-stage...
        net.attach_faults(FaultInjector(self.PLAN))
        checkpoint = CampaignCheckpoint(tmp_path / "camp.json")
        runner = CampaignRunner(
            Tracerouter(net), vps, checkpoint=checkpoint, stop_after=5
        )
        with pytest.raises(CampaignInterrupted):
            runner.run(_jobs(vps), stage="s")

        # ...then resume it with a fresh tracer, as a new process would.
        net.attach_faults(FaultInjector(self.PLAN))
        resumed = CampaignRunner.open(
            Tracerouter(net), vps, tmp_path / "camp.json", resume=True
        )
        traces = resumed.run(_jobs(vps), stage="s")
        assert [trace_to_dict(t) for t in traces] == reference
        assert resumed.health.resumed is True
        assert resumed.health.interrupted is False

    def test_resume_after_a_torn_save_converges(self, fleet, tmp_path):
        # A process killed mid-save leaves half a record at the end of
        # the log: the resume drops it, redoes that work, and overwrites
        # the torn bytes with its own first record.
        net, _routers, vps = fleet
        reference = [trace_to_dict(t) for t in self._uninterrupted(net, vps)]
        path = tmp_path / "camp.json"
        net.attach_faults(FaultInjector(self.PLAN))
        runner = CampaignRunner(
            Tracerouter(net), vps, checkpoint=CampaignCheckpoint(path),
            checkpoint_every=2, stop_after=5,
        )
        with pytest.raises(CampaignInterrupted):
            runner.run(_jobs(vps), stage="s")
        whole = path.read_bytes()
        last = whole.rindex(b"\n", 0, len(whole) - 1) + 1
        path.write_bytes(whole + whole[last:-7])  # a torn copy of the last save

        net.attach_faults(FaultInjector(self.PLAN))
        resumed = CampaignRunner.open(Tracerouter(net), vps, path, resume=True)
        traces = resumed.run(_jobs(vps), stage="s")
        assert [trace_to_dict(t) for t in traces] == reference
        assert path.read_bytes().startswith(whole)
        assert CampaignCheckpoint.load(path).stage_complete("s")

    def test_ctrl_c_saves_the_finished_jobs_only(self, fleet, tmp_path):
        # Ctrl-C lands inside the seventh job's probe: the six before it
        # are saved, it is not, and the resume converges.
        net, _routers, vps = fleet
        reference = [trace_to_dict(t) for t in self._uninterrupted(net, vps)]

        class CtrlC(CampaignRunner):
            def _run_trace(self, vp, target, flow_id):
                if self._executed == 6:
                    raise KeyboardInterrupt
                return super()._run_trace(vp, target, flow_id)

        path = tmp_path / "camp.json"
        net.attach_faults(FaultInjector(self.PLAN))
        runner = CtrlC(Tracerouter(net), vps, checkpoint=CampaignCheckpoint(path))
        with pytest.raises(CampaignInterrupted, match="interrupted"):
            runner.run(_jobs(vps), stage="s")
        saved = CampaignCheckpoint.load(path)
        assert saved.stage_done("s") == {(vp.name, t) for vp, t in _jobs(vps)[:6]}
        assert saved.health["interrupted"] is True

        net.attach_faults(FaultInjector(self.PLAN))
        resumed = CampaignRunner.open(Tracerouter(net), vps, path, resume=True)
        traces = resumed.run(_jobs(vps), stage="s")
        assert [trace_to_dict(t) for t in traces] == reference

    def test_complete_stage_loads_wholesale(self, fleet, tmp_path):
        net, _routers, vps = fleet
        checkpoint = CampaignCheckpoint(tmp_path / "camp.json")
        runner = CampaignRunner(Tracerouter(net), vps, checkpoint=checkpoint)
        first = runner.run(_jobs(vps), stage="s")

        tracer = Tracerouter(net)
        rerun = CampaignRunner.open(
            tracer, vps, tmp_path / "camp.json", resume=True
        )
        again = rerun.run(_jobs(vps), stage="s")
        assert [trace_to_dict(t) for t in again] == [
            trace_to_dict(t) for t in first
        ]
        assert tracer.traces_run == 0  # nothing re-executed


class TestOpen:
    """The opener's resume policy is the same serial and supervised."""

    PLAN = dict(seed=1, probe_loss=0.15, vp_dropout=1, vp_dropout_after=5)
    SPEC = WorkerSpec("repro.measure.substrates:toy_substrate", {"hosts": 3})
    TARGETS = [f"198.18.5.{i}" for i in range(1, 11)]

    def _open(self, path, workers, **options):
        """A fresh substrate, as a new process would build it."""
        tracer, vps = toy_substrate(hosts=3)
        tracer.network.attach_faults(FaultInjector(FaultPlan(**self.PLAN)))
        runner = CampaignRunner.open(
            tracer, list(vps.values()), path, resume=True, workers=workers,
            worker_spec=self.SPEC, **options,
        )
        return runner, _jobs(list(vps.values()), self.TARGETS)

    def test_workers_count_processes(self):
        from repro.measure.supervisor import SupervisedCampaignRunner

        serial, _ = self._open(None, 0)
        one, _ = self._open(None, 1)
        assert type(serial) is CampaignRunner
        assert isinstance(one, SupervisedCampaignRunner) and one.workers == 1

    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "supervised"])
    def test_resume_policy(self, workers, tmp_path):
        reference, jobs = self._open(None, 0)
        expected = [trace_to_dict(t) for t in reference.run(jobs, stage="s")]

        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text('{"kind": "campaign-checkpoint", TRUNC')
        with pytest.raises(CheckpointError):
            self._open(corrupt, workers)
        assert corrupt.read_text() == '{"kind": "campaign-checkpoint", TRUNC'

        # No file yet: a fresh campaign, cut after a VP has died.
        path = tmp_path / "camp.json"
        cut, jobs = self._open(path, workers, stop_after=12)
        assert not cut.health.resumed
        with pytest.raises(CampaignInterrupted):
            cut.run(jobs, stage="s")
        assert cut.health.vps_lost

        resumed, jobs = self._open(path, workers)
        assert resumed.health.resumed
        assert resumed.health.vps_lost == cut.health.vps_lost
        for name in cut.health.vps_lost:
            assert not resumed.fleet.is_alive(name)
        traces = resumed.run(jobs, stage="s")
        assert [trace_to_dict(t) for t in traces] == expected
        assert (resumed.health.workers_spawned > 0) == (workers > 0)

        complete, jobs = self._open(path, workers)
        assert [trace_to_dict(t) for t in complete.run(jobs, stage="s")] == expected
        assert complete.tracer.traces_run == 0
        assert complete.health.workers_spawned == resumed.health.workers_spawned
