"""Campaign checkpoints as an append-only record log: layout, the
torn-tail rule, corruption diagnostics, and saves that only append."""

import json

import pytest

from repro.errors import CheckpointError
from repro.io.checkpoint import CampaignCheckpoint, trace_to_dict
from repro.measure.runner import CampaignRunner
from repro.measure.substrates import WorkerSpec, toy_substrate
from repro.measure.supervisor import SupervisedCampaignRunner
from repro.measure.traceroute import Hop, TraceResult, trace_from_row, trace_to_row

HEADER = {"kind": "campaign-checkpoint", "schema": 3}


def _traces():
    return [
        TraceResult(
            "192.0.2.1", "10.0.0.9",
            [Hop(1, "10.0.0.1", rtt_ms=1.5), Hop(2, None), Hop(3, "10.0.0.9")],
            completed=True, flow_id=3, vp_name="vp-east",
        ),
        TraceResult("192.0.2.1", "10.0.1.1", [Hop(1, "10.0.0.1")]),
    ]


def _dicts(traces):
    return [trace_to_dict(t) for t in traces]


def _lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _write(path, *records):
    path.write_text("".join(
        json.dumps(line) + "\n" for line in (HEADER, *records)
    ))


def _record(**fields):
    return {"stages": {}, "health": {}, "injector": {}, **fields}


def _stage(*rows, done=(), complete=False):
    return {"traces": list(rows), "done": list(done), "complete": complete}


@pytest.fixture()
def two_saves(tmp_path):
    """A checkpoint of two records: one trace each, the second completing."""
    path = tmp_path / "campaign.json"
    checkpoint = CampaignCheckpoint(path)
    first, second = _traces()
    checkpoint.record_stage("slash24", [first], [("vp-east", "10.0.0.9")], False)
    checkpoint.save()
    checkpoint.record_stage("slash24", [second], [("vp-east", "10.0.1.1")], True)
    checkpoint.save()
    return path


class TestRecordLog:
    def test_header_then_one_record_per_save(self, two_saves):
        header, first, second = _lines(two_saves)
        assert header == HEADER
        assert first["stages"]["slash24"]["done"] == [["vp-east", "10.0.0.9"]]
        assert second["stages"]["slash24"]["done"] == [["vp-east", "10.0.1.1"]]
        assert [len(r["stages"]["slash24"]["traces"]) for r in (first, second)] == [1, 1]
        assert [r["stages"]["slash24"]["complete"] for r in (first, second)] == [False, True]

    def test_load_round_trips(self, two_saves):
        loaded = CampaignCheckpoint.load(two_saves)
        assert _dicts(loaded.stage_traces("slash24")) == _dicts(_traces())
        assert loaded.stage_done("slash24") == {
            ("vp-east", "10.0.0.9"), ("vp-east", "10.0.1.1"),
        }
        assert loaded.stage_complete("slash24")

    def test_save_writes_one_file(self, two_saves):
        assert [p.name for p in two_saves.parent.iterdir()] == [two_saves.name]

    def test_pending_traces_readable_before_save(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "c.json")
        checkpoint.record_stage("slash24", _traces(), done=[], complete=False)
        assert _dicts(checkpoint.stage_traces("slash24")) == _dicts(_traces())

    def test_a_save_after_load_appends(self, two_saves):
        before = two_saves.read_bytes()
        loaded = CampaignCheckpoint.load(two_saves)
        loaded.record_stage("rdns", _traces()[:1], done=[], complete=False)
        loaded.save()
        after = two_saves.read_bytes()
        assert after.startswith(before)
        assert list(_lines(two_saves)[-1]["stages"]) == ["rdns"]

    def test_a_fresh_checkpoint_replaces_the_file(self, two_saves):
        fresh = CampaignCheckpoint(two_saves)
        fresh.record_stage("rdns", [], done=[], complete=True)
        fresh.save()
        header, record = _lines(two_saves)
        assert header == HEADER
        assert list(record["stages"]) == ["rdns"]


class TestTornTail:
    @pytest.mark.parametrize("keep", [1, 10, -1], ids=["one-byte", "ten-bytes", "no-newline"])
    def test_a_torn_record_is_dropped_then_truncated(self, two_saves, keep):
        whole = two_saves.read_bytes()
        first_end = whole.index(b"\n", whole.index(b"\n") + 1) + 1
        torn = whole[:first_end] + whole[first_end:][:keep]
        two_saves.write_bytes(torn)
        loaded = CampaignCheckpoint.load(two_saves)
        assert _dicts(loaded.stage_traces("slash24")) == _dicts(_traces()[:1])
        assert not loaded.stage_complete("slash24")
        # The next append replaces the torn bytes.
        loaded.record_stage("slash24", _traces()[1:], [], True)
        loaded.save()
        assert two_saves.read_bytes()[:first_end] == whole[:first_end]
        again = CampaignCheckpoint.load(two_saves)
        assert _dicts(again.stage_traces("slash24")) == _dicts(_traces())
        assert again.stage_complete("slash24")
        assert len(_lines(two_saves)) == 3


class TestCorruption:
    @pytest.mark.parametrize("text, message", [
        ("", "header"),
        (json.dumps({"schema": 1, "kind": "campaign-checkpoint",
                     "stages": {}, "health": {}, "injector": {}}),
         "unsupported campaign-checkpoint schema version 1"),
        (json.dumps({**HEADER, "schema": 2}) + "\n" + json.dumps(_record()) + "\n",
         "unsupported campaign-checkpoint schema version 2"),
        (json.dumps(_record()) + "\n", "header: $.kind"),
        (json.dumps(HEADER), "unterminated header"),
    ], ids=["empty", "schema-1", "schema-2", "missing-header", "unterminated-header"])
    def test_a_bad_header_fails_the_load(self, tmp_path, text, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(CheckpointError, match="corrupt checkpoint") as failure:
            CampaignCheckpoint.load(path)
        assert message in str(failure.value)

    def test_a_corrupt_record_before_the_last_fails_the_load(self, two_saves):
        lines = two_saves.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:20] + "\n"
        two_saves.write_text("".join(lines))
        with pytest.raises(CheckpointError, match="record 1: "):
            CampaignCheckpoint.load(two_saves)

    def test_a_truncated_trace_row_in_the_last_record_fails_the_load(self, tmp_path):
        path = tmp_path / "c.json"
        row = ["10.9.0.2", "198.18.5.1", False, 0, "vp0"]
        _write(path, _record(stages={"s": _stage(row)}))
        with pytest.raises(CheckpointError) as failure:
            CampaignCheckpoint.load(path)
        assert "record 1: $.stages.s.traces[0]: expected 6 items, got 5" in str(failure.value)


def _trace_checkpoint(path):
    """A checkpoint holding one stage record of two real trace rows."""
    tracer, vps = toy_substrate(hosts=1)
    vp = vps["vp0"]
    traces = []
    for target in ("198.18.5.1", "198.18.5.2"):
        trace = tracer.trace(vp.host, target, src_address=vp.src_address)
        trace.vp_name = vp.name
        traces.append(trace)
    checkpoint = CampaignCheckpoint(path)
    checkpoint.record_stage("s", traces, [], False)
    checkpoint.save()
    header, record = path.read_text().splitlines()
    return header, json.loads(record)


#: A corruption of a stage's trace row, and the JSON path it is named by.
_ROW_CORRUPTIONS = {
    "hop truncated to 3 fields": (lambda row: row[5][0].__delitem__(slice(3, None)), "[5][0]"),
    "hop with a 7th field": (lambda row: row[5][0].append(1), "[5][0]"),
    "hop address not a string": (lambda row: row[5][0].__setitem__(1, 7), "[5][0][1]"),
    "trace missing its hops": (lambda row: row.pop(), ""),
    "completed not a bool": (lambda row: row.__setitem__(2, 1), "[2]"),
}


class TestStageTraceRows:
    def test_real_rows_load_and_rebuild(self, tmp_path):
        path = tmp_path / "ckpt.json"
        _header, record = _trace_checkpoint(path)
        traces = CampaignCheckpoint.load(path).stage_traces("s")
        rows = json.loads(json.dumps([trace_to_row(t) for t in traces]))
        assert rows == record["stages"]["s"]["traces"]
        for wire in rows:
            assert trace_to_row(trace_from_row(wire)) == tuple(
                [*wire[:5], [tuple(hop) for hop in wire[5]]]
            )

    @pytest.mark.parametrize("corruption", sorted(_ROW_CORRUPTIONS))
    def test_a_malformed_row_fails_the_load(self, tmp_path, corruption):
        path = tmp_path / "ckpt.json"
        header, record = _trace_checkpoint(path)
        corrupt, where = _ROW_CORRUPTIONS[corruption]
        corrupt(record["stages"]["s"]["traces"][1])
        path.write_text(f"{header}\n{json.dumps(record)}\n")
        with pytest.raises(CheckpointError, match="corrupt checkpoint") as failure:
            CampaignCheckpoint.load(path)
        assert f"$.stages.s.traces[1]{where}" in str(failure.value)


SPEC = WorkerSpec("repro.measure.substrates:toy_substrate", {"hosts": 3})
TARGETS = [f"198.18.5.{i}" for i in range(1, 13)]


class _Watched(CampaignCheckpoint):
    """Asserts that the file before every save is a prefix of the file after."""

    saves = 0

    def save(self):
        before = self.path.read_bytes() if self.path.exists() else b""
        super().save()
        assert self.path.read_bytes().startswith(before)
        self.saves += 1


class TestSavesOnlyAppend:
    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "supervised"])
    def test_every_trace_row_is_written_once(self, tmp_path, workers):
        # Supervised or not, the file holds the replay's stage rows and
        # nothing else: each trace is in it exactly once.
        path = tmp_path / "c.json"
        checkpoint = _Watched(path)
        tracer, vps = toy_substrate(hosts=3)
        jobs = [(vp, target) for vp in vps.values() for target in TARGETS]
        if workers:
            runner = SupervisedCampaignRunner(
                tracer, list(vps.values()), worker_spec=SPEC, workers=workers,
                shard_size=6, checkpoint=checkpoint, checkpoint_every=1,
            )
        else:
            runner = CampaignRunner(
                tracer, list(vps.values()), checkpoint=checkpoint,
                checkpoint_every=1,
            )
        traces = runner.run(jobs, stage="s")
        assert checkpoint.saves >= len(jobs)
        records = _lines(path)[1:]
        stage_rows = [
            row for r in records for row in r["stages"].get("s", {}).get("traces", [])
        ]
        done = [key for r in records for key in r["stages"].get("s", {}).get("done", [])]
        assert stage_rows == json.loads(json.dumps([trace_to_row(t) for t in traces]))
        assert sorted(map(tuple, done)) == sorted((vp.name, t) for vp, t in jobs)
        assert all(set(r) == {"stages", "health", "injector"} for r in records)
        text = path.read_text()
        for row in stage_rows:
            assert text.count(json.dumps(row, separators=(",", ":"))) == 1
