"""Corruption fuzz matrix (satellite 3): checkpoints and journals.

Truncated, garbled, and empty state files must surface as one-line
``error:`` diagnostics with exit 3 — never a traceback — for both
:meth:`CampaignCheckpoint.load` (CLI ``--resume``) and the service's
job journal / snapshot (CLI ``service status`` / ``service run``).
"""

import json

import pytest

from repro.cli import main
from repro.errors import CheckpointError, ServiceError
from repro.io.checkpoint import CampaignCheckpoint
from repro.service.executor import JobExecutor
from repro.service.spec import JobSpec
from repro.service.store import JobStore

_HEADER = json.dumps({"kind": "campaign-checkpoint", "schema": 3})


def _lines(*lines):
    return "".join(f"{line}\n" for line in lines)


def _record(**fields):
    return json.dumps(
        {"stages": {}, "health": {}, "injector": {}, **fields}
    )


CHECKPOINT_VARIANTS = {
    "empty": "",
    "truncated": '{"schema": 1, "kind": "campaign-checkpoint", "stages',
    "garbled-json": "\x00\x01not json at all\x7f",
    "wrong-kind": json.dumps({"schema": 1, "kind": "cable-region"}),
    # A whole checkpoint in the single-document layout of schema 1.
    "schema-1": json.dumps(
        {"schema": 1, "kind": "campaign-checkpoint", "stages": {},
         "health": {}, "injector": {}, "shards": {}}
    ),
    # A log in the layout before parked shards went away.
    "schema-2": _lines(
        json.dumps({"kind": "campaign-checkpoint", "schema": 2}),
        json.dumps({"stages": {}, "shards": {}, "health": {}, "injector": {}}),
    ),
    "missing-header": _lines(_record()),
    "schema-violation": _lines(_HEADER, _record(stages="nope")),
    # A record before the last one that is not whole JSON: corruption,
    # not a torn save.
    "corrupt-middle-record": _lines(_HEADER, '{"stages": {', _record()),
    # A stage trace whose hop row lost its last three fields.
    "truncated-stage-hop": _lines(_HEADER, _record(stages={"slash24": {
        "traces": [
            ["10.9.0.2", "198.18.5.1", False, 0, "vp0", [[1, "10.0.0.1", None]]],
        ],
        "done": [["vp0", "198.18.5.1"]], "complete": False,
    }})),
}

JOURNAL_VARIANTS = {
    "garbled-first-line": lambda text: "@@corrupt@@\n" + text,
    "truncated-first-line": lambda text: text[: len(text) // 2 or 1]
    + ("\n" + text if "\n" in text else ""),
    "non-object-line": lambda text: '"just a string"\n' + text,
    "missing-op": lambda text: '{"seq": 1}\n' + text,
}


def _one_line_error(capsys):
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:")
    assert "\n" not in err
    assert "Traceback" not in err
    return err


class TestCheckpointFuzz:
    @pytest.mark.parametrize("variant", sorted(CHECKPOINT_VARIANTS))
    def test_load_raises_checkpoint_error(self, tmp_path, variant):
        path = tmp_path / "campaign.ckpt"
        path.write_text(CHECKPOINT_VARIANTS[variant])
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.load(path)

    @pytest.mark.parametrize("variant", sorted(CHECKPOINT_VARIANTS))
    def test_cli_resume_exits_3_with_one_line(self, tmp_path, capsys, variant):
        path = tmp_path / "campaign.ckpt"
        path.write_text(CHECKPOINT_VARIANTS[variant])
        code = main(["map-cable", "comcast", "--sweep-vps", "2",
                     "--resume", str(path)])
        assert code == 3
        _one_line_error(capsys)

    def test_direct_load_of_missing_checkpoint_is_clean(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            CampaignCheckpoint.load(tmp_path / "absent.ckpt")


class TestJobCheckpointDiscard:
    """A corrupt job checkpoint costs one attempt, not the job: the
    executor discards it and the retry starts the campaign over."""

    def _corrupt(self, executor, job_id):
        path = executor.jobs_dir / job_id / "checkpoint.json"
        path.parent.mkdir(parents=True)
        path.write_text(CHECKPOINT_VARIANTS["corrupt-middle-record"])
        return path

    def test_toy_job(self, tmp_path):
        executor = JobExecutor(tmp_path / "jobs")
        stage = tmp_path / "stage"
        spec = JobSpec(pipeline="toy", seed=1, targets=4, hosts=2)
        path = self._corrupt(executor, "toy")
        with pytest.raises(ServiceError, match="corrupt and has been discarded"):
            executor.execute("toy", spec, "full", attempt=1, stage_dir=stage)
        assert not path.exists()
        result = executor.execute("toy", spec, "full", attempt=2, stage_dir=stage)
        assert "corpus.json" in result.artifacts
        assert path.exists()

    def test_cable_job_loads_its_checkpoint_once(self, tmp_path, monkeypatch):
        from repro.infer.pipeline import CableInferencePipeline

        # A few targets per sweep keep the campaign small.
        for name in ("slash24_targets", "rdns_targets"):
            full = getattr(CableInferencePipeline, name)
            monkeypatch.setattr(CableInferencePipeline, name,
                                lambda self, full=full: full(self)[:8])
        executor = JobExecutor(tmp_path / "jobs")
        stage = tmp_path / "stage"
        spec = JobSpec(pipeline="map-cable", seed=0, isp="charter",
                       sweep_vps=2)
        path = self._corrupt(executor, "cable")
        with pytest.raises(ServiceError, match="corrupt and has been discarded"):
            executor.execute("cable", spec, "full", attempt=1, stage_dir=stage)
        assert not path.exists()
        fresh = executor.execute("cable", spec, "full", attempt=2, stage_dir=stage)
        assert path.exists()

        loads = []
        load = CampaignCheckpoint.load.__func__
        monkeypatch.setattr(CampaignCheckpoint, "load", classmethod(
            lambda cls, where: loads.append(where) or load(cls, where)
        ))
        resumed = executor.execute("cable", spec, "full", attempt=3, stage_dir=stage)
        assert loads == [path]
        fresh.artifacts.pop("health.json")
        resumed.artifacts.pop("health.json")
        assert resumed.artifacts == fresh.artifacts
        assert any(name.startswith("charter-") for name in fresh.artifacts)


class TestJournalFuzz:
    def _seeded_state(self, tmp_path):
        state = tmp_path / "state"
        store = JobStore.open(state)
        record, _ = store.submit(JobSpec(seed=1, targets=4))
        store.append("heartbeat", job_id=record.job_id, expires_at=1.0)
        store.close()
        return state

    @pytest.mark.parametrize("variant", sorted(JOURNAL_VARIANTS))
    def test_corrupt_journal_raises_service_error(self, tmp_path, variant):
        state = self._seeded_state(tmp_path)
        journal = state / "journal.jsonl"
        journal.write_text(JOURNAL_VARIANTS[variant](journal.read_text()))
        with pytest.raises(ServiceError, match="corrupt service journal"):
            JobStore.open(state)

    @pytest.mark.parametrize("variant", sorted(JOURNAL_VARIANTS))
    @pytest.mark.parametrize("command", ["status", "run"])
    def test_cli_exits_3_with_one_line(self, tmp_path, capsys, variant,
                                       command):
        state = self._seeded_state(tmp_path)
        journal = state / "journal.jsonl"
        journal.write_text(JOURNAL_VARIANTS[variant](journal.read_text()))
        argv = ["service", command, str(state)]
        if command == "run":
            argv.append("--until-idle")
        code = main(argv)
        assert code == 3
        err = _one_line_error(capsys)
        assert "journal" in err

    def test_corrupt_snapshot_exits_3(self, tmp_path, capsys):
        state = self._seeded_state(tmp_path)
        store = JobStore.open(state)
        store.compact()
        store.close()
        snapshot = state / "snapshot.json"
        snapshot.write_text(snapshot.read_text()[:40])
        code = main(["service", "status", str(state)])
        assert code == 3
        err = _one_line_error(capsys)
        assert "snapshot" in err

    def test_torn_tail_is_not_an_error(self, tmp_path, capsys):
        state = self._seeded_state(tmp_path)
        with open(state / "journal.jsonl", "a") as handle:
            handle.write('{"seq": 9, "op": "done", "job_')
        assert main(["service", "status", str(state)]) == 0
        assert "queued" in capsys.readouterr().out
