"""SupervisedCampaignRunner: crash-tolerant pool, serial-identical corpus.

Every test runs real ``spawn``-context worker processes over the toy
substrate (the same diamond the ``toy_network`` fixture builds), so
what is exercised here is the actual supervisor loop: heartbeats,
SIGKILL recovery, stall detection, poison quarantine, and checkpointed
shard reuse.
"""

import json

import pytest

from repro.errors import CheckpointError
from repro.faults import FaultInjector, FaultPlan
from repro.io.checkpoint import CampaignCheckpoint, trace_to_dict
from repro.measure.runner import CampaignRunner
from repro.measure.substrates import WorkerSpec, toy_substrate
from repro.measure.supervisor import SupervisedCampaignRunner
from repro.measure.traceroute import trace_from_row, trace_to_row

SPEC = WorkerSpec("repro.measure.substrates:toy_substrate", {"hosts": 3})
TARGETS = [f"198.18.5.{i}" for i in range(1, 41)]


def _jobs(vps):
    return [(vp, target) for vp in vps.values() for target in TARGETS]


def _corpus(traces):
    return json.dumps([trace_to_dict(t) for t in traces], sort_keys=True)


#: Health fields only the supervisor fills in (zero for a serial run).
_SUPERVISOR_HEALTH = (
    "shards_planned", "shards_reused", "shards_retried", "shards_poisoned",
    "workers_spawned", "workers_crashed", "workers_stalled", "workers_slow",
)


def _campaign_health(runner):
    """The runner's health without the supervisor's own bookkeeping."""
    health = runner.health.as_dict()
    for name in _SUPERVISOR_HEALTH:
        health.pop(name)
    return health


def _substrate(plan_kwargs=None):
    tracer, vps = toy_substrate(hosts=3)
    if plan_kwargs:
        tracer.network.attach_faults(FaultInjector(FaultPlan(**plan_kwargs)))
    return tracer, vps


def _serial(plan_kwargs=None, **kwargs):
    tracer, vps = _substrate(plan_kwargs)
    runner = CampaignRunner(tracer, list(vps.values()), **kwargs)
    return _corpus(runner.run(_jobs(vps), stage="s")), runner


def _serial_corpus(plan_kwargs=None):
    return _serial(plan_kwargs)[0]


def _supervised(plan_kwargs=None, checkpoint=None, workers=2, **kwargs):
    tracer, vps = _substrate(plan_kwargs)
    runner = SupervisedCampaignRunner(
        tracer, list(vps.values()), worker_spec=SPEC, checkpoint=checkpoint,
        workers=workers, shard_size=10, **kwargs,
    )
    traces = runner.run(_jobs(vps), stage="s")
    return _corpus(traces), runner


class TestWireFormat:
    def test_round_trip_and_json_safety(self):
        tracer, vps = toy_substrate(hosts=1)
        vp = vps["vp0"]
        trace = tracer.trace(vp.host, "198.18.5.1", src_address=vp.src_address)
        trace.vp_name = vp.name
        row = trace_to_row(trace)
        assert trace_to_dict(trace_from_row(row)) == trace_to_dict(trace)
        # A row stored in a checkpoint JSON-round-trips its tuples into
        # lists; rebuilding must accept that form too.
        relisted = json.loads(json.dumps(row))
        assert trace_to_dict(trace_from_row(relisted)) == trace_to_dict(trace)


def _parked_checkpoint(path):
    """A checkpoint holding one parked shard of two real result rows."""
    tracer, vps = toy_substrate(hosts=1)
    vp = vps["vp0"]
    rows = []
    for target, fault_delta in (("198.18.5.1", None), ("198.18.5.2", {"probes_lost": 1})):
        trace = tracer.trace(vp.host, target, src_address=vp.src_address)
        trace.vp_name = vp.name
        rows.append((vp.name, target, trace_to_row(trace), tracer.counters(), fault_delta))
    checkpoint = CampaignCheckpoint(path)
    checkpoint.record_shard("s", "s-0", {"results": rows})
    checkpoint.save()
    header, record = path.read_text().splitlines()
    return header, json.loads(record)


#: A corruption of the parked payload, and the JSON path it is named by.
_ROW_CORRUPTIONS = {
    "hop truncated to 3 fields": (lambda row: row[2][5][0].__delitem__(slice(3, None)), "[2][5][0]"),
    "hop with a 7th field": (lambda row: row[2][5][0].append(1), "[2][5][0]"),
    "hop address not a string": (lambda row: row[2][5][0].__setitem__(1, 7), "[2][5][0][1]"),
    "trace missing its hops": (lambda row: row[2].pop(), "[2]"),
    "completed not a bool": (lambda row: row[2].__setitem__(2, 1), "[2][2]"),
    "row missing its fault delta": (lambda row: row.pop(), "$.shards.s.s-0.results[1]"),
    "tracer delta not numeric": (lambda row: row[3].__setitem__("probes_sent", "x"), "[3].probes_sent"),
}


class TestParkedShardRows:
    def test_real_rows_load_and_rebuild(self, tmp_path):
        path = tmp_path / "ckpt.json"
        _header, record = _parked_checkpoint(path)
        results = CampaignCheckpoint.load(path).shard_results("s")["s-0"]["results"]
        assert results == record["shards"]["s"]["s-0"]["results"]
        for _vp, _target, wire, _tracer_delta, _fault_delta in results:
            assert trace_to_row(trace_from_row(wire)) == tuple(
                [*wire[:5], [tuple(hop) for hop in wire[5]]]
            )

    @pytest.mark.parametrize("corruption", sorted(_ROW_CORRUPTIONS))
    def test_a_malformed_row_fails_the_load(self, tmp_path, corruption):
        path = tmp_path / "ckpt.json"
        header, record = _parked_checkpoint(path)
        corrupt, where = _ROW_CORRUPTIONS[corruption]
        corrupt(record["shards"]["s"]["s-0"]["results"][1])
        path.write_text(f"{header}\n{json.dumps(record)}\n")
        with pytest.raises(CheckpointError, match="corrupt checkpoint") as failure:
            CampaignCheckpoint.load(path)
        assert where in str(failure.value)
        assert "$.shards.s.s-0.results[1]" in str(failure.value)


class TestFaultFreeParity:
    def test_corpus_byte_identical_to_serial(self):
        corpus, runner = _supervised()
        assert corpus == _serial_corpus()
        assert runner.health.shards_planned == 12
        assert runner.health.shards_poisoned == 0
        assert runner.health.workers_crashed == 0
        assert not runner.health.degraded

    def test_three_worker_corpus_byte_identical_to_serial(self):
        corpus, runner = _supervised(workers=3)
        assert corpus == _serial_corpus()
        assert runner.health.shards_poisoned == 0

    def test_health_counters_match_serial(self):
        _corpus_text, runner = _supervised()
        _serial_text, serial = _serial()
        assert _campaign_health(runner) == _campaign_health(serial)

    def test_single_worker_degenerates_cleanly(self):
        corpus, runner = _supervised(workers=1)
        assert corpus == _serial_corpus()
        assert runner.health.workers_spawned == 1


class TestFaultedParity:
    """Probe-path faults replay onto the canonical tracer and injector,
    so corpus *and* health match the serial runner's."""

    def _assert_parity(self, plan):
        corpus, runner = _supervised(plan)
        reference, serial = _serial(plan)
        assert corpus == reference
        assert _campaign_health(runner) == _campaign_health(serial)
        return runner.health

    def test_probe_loss_parity(self):
        health = self._assert_parity(
            dict(seed=7, probe_loss=0.15, rdns_timeout=0.1)
        )
        assert health.fault_stats["rdns_timeouts"] > 0

    def test_vp_death_and_failover_parity(self):
        # VP death reorders work across VPs — the hard case.  The doomed
        # VP's unconsumed speculations must be discarded and its failed-
        # over jobs re-probed synchronously under the stand-in's identity.
        health = self._assert_parity(
            dict(seed=1, probe_loss=0.15, vp_dropout=1, vp_dropout_after=5)
        )
        assert health.vps_lost  # the scenario actually exercised death
        assert health.targets_reassigned > 0

    def test_lsp_flap_parity(self):
        # The toy diamond has no LSPs, so only the plan's probe loss
        # fires here; an active flap plan must still not perturb replay.
        self._assert_parity(dict(seed=11, lsp_flap=0.3, probe_loss=0.05))


class TestCrashRecovery:
    def test_sigkilled_worker_shard_is_retried_and_corpus_matches(self):
        # worker_crash faults SIGKILL the worker mid-shard, between
        # heartbeats; the supervisor must see the pipe drop, charge the
        # running shard, and rerun it on a fresh worker.
        plan = dict(seed=11, worker_crash=0.3)
        corpus, runner = _supervised(plan)
        assert runner.health.workers_crashed > 0
        assert runner.health.shards_retried >= runner.health.workers_crashed
        assert runner.health.workers_spawned > 2  # replacements spawned
        assert corpus == _serial_corpus(plan)
        # Recovered completely: degradation recorded, nothing dropped.
        assert runner.health.shards_poisoned == 0
        assert runner.health.targets_skipped == 0

    def test_stalled_worker_is_killed_on_heartbeat_timeout(self):
        plan = dict(seed=7, worker_stall=0.25)
        corpus, runner = _supervised(
            plan, heartbeat_interval=0.05, heartbeat_timeout=0.5,
        )
        assert runner.health.workers_stalled > 0
        assert corpus == _serial_corpus(plan)


class TestPoisonQuarantine:
    def test_exhausted_retries_quarantine_the_shard(self):
        corpus, runner = _supervised(
            dict(seed=3, worker_crash=1.0), max_shard_retries=0,
        )
        assert runner.health.shards_poisoned == runner.health.shards_planned
        assert runner.health.targets_skipped == len(TARGETS) * 3
        assert runner.health.degraded
        assert corpus == "[]"
        assert len(runner.quarantine) == runner.health.shards_poisoned
        record = runner.quarantine.records[0]
        assert record.stage == "supervisor"
        assert record.category == "poison-shard"
        assert record.dropped


class TestCheckpointResume:
    def test_completed_shards_are_reused_without_spawning(self, tmp_path):
        path = tmp_path / "ckpt.json"
        first = CampaignCheckpoint(path)
        tracer, vps = toy_substrate(hosts=3)
        runner = SupervisedCampaignRunner(
            tracer, list(vps.values()), worker_spec=SPEC, checkpoint=first,
            workers=2, shard_size=10,
        )
        # Speculate only — the stage is never replayed, so the shard
        # payloads stay parked in the checkpoint (a supervisor killed
        # between speculation and replay leaves exactly this state).
        runner._precompute(_jobs(vps), "s", 0)
        first.save()
        assert runner.health.shards_planned == 12

        resumed = CampaignCheckpoint.load(path)
        corpus, second = _supervised(checkpoint=resumed)
        assert second.health.shards_reused == 12
        assert second.health.workers_spawned == 0
        assert corpus == _serial_corpus()
        # Replay completed the stage: parked payloads are dropped.
        assert resumed.shard_results("s") == {}

    PLAN = dict(seed=1, probe_loss=0.15, vp_dropout=1, vp_dropout_after=5)

    def _resume(self, path):
        tracer, vps = _substrate(self.PLAN)
        runner = SupervisedCampaignRunner.resumed(
            tracer, list(vps.values()), CampaignCheckpoint.load(path),
            worker_spec=SPEC, workers=2, shard_size=10,
        )
        return _corpus(runner.run(_jobs(vps), stage="s")), runner

    def test_resume_converges_on_serial_output(self, tmp_path):
        # Kill a supervised campaign mid-stage, then resume it under
        # the supervisor, as a new process would.
        from repro.errors import CampaignInterrupted

        path = tmp_path / "camp.json"
        with pytest.raises(CampaignInterrupted):
            _supervised(self.PLAN, checkpoint=CampaignCheckpoint(path),
                        stop_after=5)
        corpus, resumed = self._resume(path)
        assert corpus == _serial_corpus(self.PLAN)
        assert resumed.health.resumed

    def test_serial_checkpoint_resumable_under_supervisor(self, tmp_path):
        # Mixed mode: a serial campaign's checkpoint picked up by the
        # supervised runner (an operator adds --workers when resuming).
        from repro.errors import CampaignInterrupted

        path = tmp_path / "camp.json"
        with pytest.raises(CampaignInterrupted):
            _serial(self.PLAN, checkpoint=CampaignCheckpoint(path),
                    stop_after=5)
        corpus, resumed = self._resume(path)
        assert corpus == _serial_corpus(self.PLAN)
        assert resumed.health.resumed


class TestPacing:
    def test_pace_rides_the_tracer_config_to_workers(self):
        tracer, vps = toy_substrate(hosts=3)
        tracer.pace_ms = 0.01
        runner = SupervisedCampaignRunner(
            tracer, list(vps.values()), worker_spec=SPEC, workers=2,
            shard_size=40,
        )
        traces = runner.run(_jobs(vps), stage="s")
        assert len(traces) == len(TARGETS) * 3
        # Pacing is pure wall-clock: the corpus bytes must not move.
        assert _corpus(traces) == _serial_corpus()


class TestValidation:
    def test_bad_worker_spec_fails_eagerly(self):
        with pytest.raises(Exception, match="not importable"):
            WorkerSpec("repro.not.a.module:factory")


class TestGracefulShutdown:
    """Satellite: Ctrl-C / SIGTERM must checkpoint and leak nothing."""

    def test_interrupt_flushes_checkpoint_and_terminates_workers(
        self, tmp_path, monkeypatch
    ):
        import multiprocessing
        import time

        from repro.errors import CampaignInterrupted
        from repro.measure import supervisor as supervisor_module

        path = tmp_path / "campaign.ckpt"
        tracer, vps = toy_substrate(hosts=3)
        runner = SupervisedCampaignRunner(
            tracer, list(vps.values()), worker_spec=SPEC,
            checkpoint=CampaignCheckpoint(path), workers=2, shard_size=10,
        )
        real_wait = supervisor_module._conn_wait
        polls = {"count": 0}

        def interrupting_wait(conns, timeout=None):
            polls["count"] += 1
            if polls["count"] > 6:
                raise KeyboardInterrupt
            return real_wait(conns, timeout=timeout)

        monkeypatch.setattr(supervisor_module, "_conn_wait",
                            interrupting_wait)
        with pytest.raises(CampaignInterrupted, match="checkpoint"):
            runner.run(_jobs(vps), stage="s")

        assert runner.health.interrupted
        # The checkpoint was flushed on the way out with honest health.
        saved = CampaignCheckpoint.load(path)
        assert saved.health["interrupted"] is True
        # No leaked spawn processes: the pool was torn down.
        deadline = time.monotonic() + 10
        while multiprocessing.active_children() \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

        # A resume from that checkpoint completes the campaign and the
        # corpus is byte-identical to the serial reference.
        monkeypatch.setattr(supervisor_module, "_conn_wait", real_wait)
        tracer2, vps2 = toy_substrate(hosts=3)
        resumed = SupervisedCampaignRunner.resumed(
            tracer2, list(vps2.values()), CampaignCheckpoint.load(path),
            worker_spec=SPEC, workers=2, shard_size=10,
        )
        corpus = _corpus(resumed.run(_jobs(vps2), stage="s"))
        assert corpus == _serial_corpus()
        assert resumed.health.resumed
        assert not resumed.health.interrupted
