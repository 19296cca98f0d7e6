"""SupervisedCampaignRunner: crash-tolerant pool, serial-identical corpus.

Every test runs real ``spawn``-context worker processes over the toy
substrate (the same diamond the ``toy_network`` fixture builds), so
what is exercised here is the actual supervisor loop: heartbeats,
SIGKILL recovery, stall detection, poison quarantine, and resuming
from the replay's checkpoint.
"""

import json
import multiprocessing
import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import CampaignInterrupted
from repro.faults import FaultInjector, FaultPlan, FaultStats
from repro.io.checkpoint import CampaignCheckpoint, trace_to_dict
from repro.measure.runner import CampaignRunner
from repro.measure.shard import plan_shards
from repro.measure.substrates import WorkerSpec, toy_substrate
from repro.measure import supervisor as supervisor_module
from repro.measure.supervisor import SupervisedCampaignRunner
from repro.measure.traceroute import Tracerouter, trace_from_row, trace_to_row

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


    def test_a_job_crosses_the_pipe_as_one_cost_record(self):
        # A worker's job is (vp, target, row, cost): the cost is what the
        # trace added to the tracer's counters, then to the per-trace
        # fault counts, as one tuple.
        plan = FaultPlan(seed=7, probe_loss=0.3)
        tracer, vps = toy_substrate(hosts=1)
        injector = FaultInjector(plan)
        tracer.network.attach_faults(injector)
        jobs = [("vp0", target) for target in TARGETS[:5]]
        shard = plan_shards(jobs, "s", shard_size=5)[0]
        sent = []
        results, slow = supervisor_module._run_shard(
            SimpleNamespace(send=sent.append), tracer, vps, injector.stats,
            plan, shard, 1, 60.0,
        )
        assert sent == [("start", shard.shard_id, 1)]
        assert not slow
        assert [result[:2] for result in results] == jobs
        costs = [result[3] for result in results]
        width = len(Tracerouter.COUNTERS)
        assert all(len(cost) == width + len(FaultStats.TRACE_COUNTS) for cost in costs)
        charged = Tracerouter(tracer.network)
        stats = FaultStats()
        for cost in costs:
            charged.charge(cost[:width])
            stats.charge(cost[width:])
        assert charged.counters() == tracer.counters()
        assert stats == injector.stats
        assert stats.probes_lost > 0


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

    def test_every_trace_comes_from_the_pool(self, monkeypatch):
        # The replay waits for each job's shard, so on a fault-free run
        # the parent probes nothing itself.
        calls = []
        trace = Tracerouter.trace
        monkeypatch.setattr(
            Tracerouter, "trace",
            lambda self, *args, **kwargs: calls.append(args) or trace(self, *args, **kwargs),
        )
        corpus, _runner = _supervised()
        assert calls == []
        monkeypatch.undo()
        assert corpus == _serial_corpus()

    def test_a_shard_that_settles_first_waits_for_the_earlier_one(self, monkeypatch):
        # V settles shard 1 while W still runs shard 0: the replay, at
        # job 0, keeps pumping until shard 0 settles, then consumes
        # both in job order, probing nothing itself.
        tracer, vps = toy_substrate(hosts=3)
        runner = SupervisedCampaignRunner(
            tracer, list(vps.values()), worker_spec=SPEC, workers=2,
            shard_size=10,
        )
        _ScriptedWorkers(monkeypatch, runner, _out_of_order)
        probed = []
        trace = tracer.trace
        tracer.trace = lambda *args, **kwargs: probed.append(args) or trace(*args, **kwargs)
        jobs = _jobs(vps)[:40]
        corpus = _corpus(runner.run(jobs, stage="s"))
        assert probed == []
        serial_tracer, serial_vps = toy_substrate(hosts=3)
        serial = CampaignRunner(serial_tracer, list(serial_vps.values()))
        assert corpus == _corpus(serial.run(_jobs(serial_vps)[:40], stage="s"))

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


class _AwayFromThePump(SupervisedCampaignRunner):
    """Naps longer than the heartbeat timeout, three times: on the
    first trace of a shard the replay consumes (``replay``), or in the
    first failovers (``failover``)."""

    NAP_S = 0.6

    def __init__(self, *args, nap_in, **kwargs):
        super().__init__(*args, **kwargs)
        self.nap_in = nap_in
        self.consumed = 0
        self.naps = 0

    def _run_trace(self, vp, target, flow_id):
        if (vp.name, target, flow_id) in self._speculative:
            nap = self.nap_in == "replay" and self.consumed % 40 == 0
            self.consumed += 1
        else:
            nap = self.nap_in == "failover" and self.naps < 3
        if nap:
            self.naps += 1
            time.sleep(self.NAP_S)
        return super()._run_trace(vp, target, flow_id)


class _FakeProcess:
    def is_alive(self):
        return True

    def terminate(self):
        pass

    def join(self, timeout=None):
        pass


#: A cost record that charges nothing: every tracer counter and every
#: per-trace fault count moved by zero.
_NO_COST = (0,) * (len(Tracerouter.COUNTERS) + len(FaultStats.TRACE_COUNTS))


class _ScriptedWorkers:
    """Two in-process stand-ins for spawned workers, W and V.

    The pool reads their pipes as usual; *script* (a generator
    function of this object) sends one step of their messages per pump
    tick, so the order in which shards start and settle is fixed.
    """

    def __init__(self, monkeypatch, runner, script):
        self.runner = runner
        self.ends = []
        # Rows come from a tracer of their own, not the runner's.
        self.tracer, self.vps = toy_substrate(hosts=3)
        self.given = {}
        monkeypatch.setattr(runner, "_spawn", self._spawn)
        steps = script(self)
        real_wait = supervisor_module._conn_wait

        def scripted_wait(conns, timeout=None):
            step = next(steps, None)
            if step is not None:
                step()
            return real_wait(conns, timeout=timeout)

        monkeypatch.setattr(supervisor_module, "_conn_wait", scripted_wait)

    def _spawn(self, ctx, plan_payload, tracer_config, now):
        parent_end, child_end = multiprocessing.Pipe()
        self.ends.append(child_end)
        self.runner.health.workers_spawned += 1
        return supervisor_module._Worker(_FakeProcess(), parent_end, now)

    def ready(self):
        for end in self.ends:
            end.send(("ready",))

    def take(self):
        """Record the shards sent to each worker so far: W's, then V's."""
        for name, end in zip("WV", self.ends):
            while end.poll():
                self.given.setdefault(name, []).append(end.recv()[1])

    def start(self, name, index):
        self.ends["WV".index(name)].send(("start", self.given[name][index].shard_id, 1))

    def done(self, name, index):
        shard = self.given[name][index]
        rows = []
        for vp_name, target in shard.jobs:
            vp = self.vps[vp_name]
            trace = self.tracer.trace(vp.host, target, flow_id=shard.flow_id,
                                      src_address=vp.src_address)
            trace.vp_name = vp_name
            rows.append((vp_name, target, trace_to_row(trace), _NO_COST))
        self.ends["WV".index(name)].send(("done", shard.shard_id, 1, rows, False))


def _out_of_order(workers):
    """W runs shards 0 and 2, V shards 1 and 3, one step per pump tick;
    V settles shard 1 while W still runs shard 0."""
    yield workers.ready
    yield lambda: (workers.take(), workers.start("W", 0), workers.start("V", 0))
    yield lambda: workers.done("V", 0)
    yield lambda: workers.done("W", 0)
    yield lambda: (workers.start("W", 1), workers.start("V", 1))
    yield lambda: (workers.done("W", 1), workers.done("V", 1))


class TestPumpLiveness:
    """Time the parent spends away from the pump is no worker's stall."""

    @pytest.mark.parametrize("nap_in, plan", [
        ("replay", None),
        ("failover", dict(seed=1, probe_loss=0.15, vp_dropout=1, vp_dropout_after=5)),
    ], ids=["replay", "failover"])
    def test_a_slow_replay_or_failover_is_not_a_stall(self, nap_in, plan):
        tracer, vps = _substrate(plan)
        runner = _AwayFromThePump(
            tracer, list(vps.values()), worker_spec=SPEC, workers=2,
            shard_size=10, heartbeat_timeout=0.5, nap_in=nap_in,
        )
        corpus = _corpus(runner.run(_jobs(vps), stage="s"))
        assert runner.naps == 3
        assert runner.health.workers_stalled == 0
        assert runner.health.shards_retried == 0
        assert runner.health.workers_spawned == 2
        assert corpus == _serial_corpus(plan)

    def test_a_done_read_after_a_nap_is_not_a_stall(self, monkeypatch):
        # W has read "start" for shard 0 when V settles shard 1; the
        # pool yields and the parent naps.  W's "done" is then the first
        # thing the pump reads from it, with W's next shard queued.
        tracer, vps = toy_substrate(hosts=3)
        runner = SupervisedCampaignRunner(
            tracer, list(vps.values()), worker_spec=SPEC, workers=2,
            shard_size=10, heartbeat_timeout=0.3,
        )
        workers = _ScriptedWorkers(monkeypatch, runner, _out_of_order)
        shards = plan_shards(
            [(vp.name, target) for vp, target in _jobs(vps)][:40], "s",
            shard_size=10,
        )
        runner._unsettled.update(job for shard in shards for job in shard.jobs)
        outcomes = {}
        pool = runner._run_pool(shards, {}, outcomes)
        next(pool)
        assert outcomes == {workers.given["V"][0].shard_id: "done"}
        time.sleep(0.5)
        for _ in pool:
            pass
        assert runner.health.workers_stalled == 0
        assert runner.health.workers_spawned == 2
        assert list(outcomes.values()) == ["done"] * 4


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
    def test_a_supervisor_killed_mid_stage_resumes_from_its_saved_replay(
        self, tmp_path, monkeypatch
    ):
        # SIGKILL right after the second save: the stage is cut with no
        # flush, and the workers die with the pool.
        class Killed(BaseException):
            pass

        save = CampaignCheckpoint.save
        saves = []

        def killing_save(checkpoint):
            save(checkpoint)
            saves.append(checkpoint.path.stat().st_size)
            if len(saves) == 2:
                raise Killed

        monkeypatch.setattr(CampaignCheckpoint, "save", killing_save)
        path = tmp_path / "ckpt.json"
        with pytest.raises(Killed):
            _supervised(checkpoint=CampaignCheckpoint(path), checkpoint_every=15)
        monkeypatch.undo()
        killed = CampaignCheckpoint.load(path)
        assert len(killed.stage_done("s")) == 30
        assert not killed.stage_complete("s")
        before = dict(killed.health)

        tracer, vps = _substrate()
        resumed = CampaignRunner.open(
            tracer, list(vps.values()), path, resume=True,
            workers=2, worker_spec=SPEC, shard_size=10,
        )
        corpus = _corpus(resumed.run(_jobs(vps), stage="s"))
        assert corpus == _serial_corpus()
        # Only the jobs the replay had not saved are sharded again, on
        # a fresh pool.
        assert resumed.health.shards_planned - before["shards_planned"] == 9
        assert resumed.health.workers_spawned - before["workers_spawned"] == 2
        assert resumed.health.shards_reused == 0
        rows = [
            row for line in path.read_text().splitlines()[1:]
            for row in json.loads(line)["stages"].get("s", {}).get("traces", [])
        ]
        # Each trace is in the file once: the killed run's 30, then the
        # resume's 90.
        assert len({json.dumps(row) for row in rows}) == len(rows) == len(TARGETS) * 3

    PLAN = dict(seed=1, probe_loss=0.15, vp_dropout=1, vp_dropout_after=5)

    def _resume(self, path):
        tracer, vps = _substrate(self.PLAN)
        runner = CampaignRunner.open(
            tracer, list(vps.values()), path, resume=True,
            workers=2, worker_spec=SPEC, shard_size=10,
        )
        return _corpus(runner.run(_jobs(vps), stage="s")), runner

    def test_resume_converges_on_serial_output(self, tmp_path):
        # Kill a supervised campaign mid-stage, then resume it under
        # the supervisor, as a new process would.
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
    """Ctrl-C / SIGTERM must checkpoint and leak nothing."""

    def test_an_interrupt_while_waiting_on_a_shard_leaves_that_job_undone(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "ckpt.json"
        tracer, vps = toy_substrate(hosts=3)
        runner = SupervisedCampaignRunner(
            tracer, list(vps.values()), worker_spec=SPEC,
            checkpoint=CampaignCheckpoint(path), workers=2, shard_size=10,
        )
        waiting = []
        job_blocked = runner._job_blocked
        monkeypatch.setattr(
            runner, "_job_blocked",
            lambda job_key: waiting.append(job_key) or job_blocked(job_key),
        )
        real_wait = supervisor_module._conn_wait

        def interrupting_wait(conns, timeout=None):
            # Ctrl-C lands in the pump, once the replay is under way.
            if runner._executed >= 15:
                raise KeyboardInterrupt
            return real_wait(conns, timeout=timeout)

        monkeypatch.setattr(supervisor_module, "_conn_wait", interrupting_wait)
        with pytest.raises(CampaignInterrupted, match="interrupted"):
            runner.run(_jobs(vps), stage="s")
        keys = [(vp.name, target) for vp, target in _jobs(vps)]
        cut = keys.index(waiting[-1])
        assert cut >= 15
        saved = CampaignCheckpoint.load(path)
        assert saved.health["interrupted"] is True
        # Every job before the one waiting on its shard is saved; that
        # one is not.
        assert saved.stage_done("s") == set(keys[:cut])
        assert len(saved.stage_traces("s")) == cut

        monkeypatch.undo()
        tracer, vps = toy_substrate(hosts=3)
        resumed = CampaignRunner.open(
            tracer, list(vps.values()), path, resume=True,
            workers=2, worker_spec=SPEC, shard_size=10,
        )
        corpus = _corpus(resumed.run(_jobs(vps), stage="s"))
        reference, serial = _serial()
        assert corpus == reference
        assert {**_campaign_health(resumed), "resumed": False} == _campaign_health(serial)

    def test_interrupt_flushes_checkpoint_and_terminates_workers(
        self, tmp_path, monkeypatch
    ):
        import multiprocessing

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
        resumed = CampaignRunner.open(
            tracer2, list(vps2.values()), path, resume=True,
            workers=2, worker_spec=SPEC, shard_size=10,
        )
        corpus = _corpus(resumed.run(_jobs(vps2), stage="s"))
        assert corpus == _serial_corpus()
        assert resumed.health.resumed
        assert not resumed.health.interrupted


TRACER_CONFIG = {"max_ttl": 32, "jitter_ms": 0.05, "attempts": 1, "backoff_ms": 0.3}


class TestOrphanedWorker:
    """A worker whose supervisor is gone returns quietly."""

    def test_gone_before_ready(self):
        parent, child = multiprocessing.Pipe()
        parent.close()
        supervisor_module._worker_main(child, SPEC, None, TRACER_CONFIG, 0.2)

    def test_gone_after_a_shard_was_sent(self):
        parent, child = multiprocessing.Pipe()
        raised = []

        def serve():
            try:
                # Heartbeat after every job, so the worker keeps sending.
                supervisor_module._worker_main(child, SPEC, None, TRACER_CONFIG, 0.0)
            except BaseException as exc:  # noqa: BLE001 - the test's verdict
                raised.append(exc)

        worker = threading.Thread(target=serve, daemon=True)
        worker.start()
        assert parent.recv() == ("ready",)
        _, vps = toy_substrate(hosts=3)
        jobs = [(name, target) for name in vps for target in TARGETS]
        parent.send(("shard", plan_shards(jobs, "s", shard_size=len(jobs))[0], 1))
        assert parent.recv()[0] == "start"
        parent.close()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert raised == []
