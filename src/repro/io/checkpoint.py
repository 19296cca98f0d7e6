"""Campaign checkpoints: an append-only record log of partial sweeps.

A long traceroute campaign that dies at hour five should not restart at
hour zero.  :class:`CampaignCheckpoint` persists, per campaign stage,
the traces already collected, the (vantage point, target) jobs already
executed, the campaign health counters, and the fault injector's state
(per-VP probe counts and dead VPs), so a resumed run continues exactly
where the checkpointed one stopped and — because every fault decision
is keyed on event identity, not call order — converges on the same
final output as a run that was never interrupted.

The file is one JSON object per line: a header, then one record per
:meth:`~CampaignCheckpoint.save` holding only what changed since the
previous save, so each trace is written once, as a
:func:`~repro.measure.traceroute.trace_to_row` row
(``docs/robustness.md`` spells out the layout).
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field

from repro.errors import CheckpointError, SchemaError
from repro.io.atomic import atomic_write_text, read_log
from repro.measure.traceroute import Hop, TraceResult, trace_from_row, trace_to_row
from repro.perf.gcpause import gc_paused
from repro.validate.schema import (
    ARTIFACT_VERSIONS,
    CHECKPOINT_RECORD,
    check,
    validate_artifact,
)

_HEADER = json.dumps({
    "kind": "campaign-checkpoint",
    "schema": ARTIFACT_VERSIONS["campaign-checkpoint"],
}) + "\n"


def trace_to_dict(trace: TraceResult) -> "dict[str, object]":
    """Serialize one traceroute to a JSON-ready dict (JSON trace corpora)."""
    return {
        "src": trace.src_address,
        "dst": trace.dst_address,
        "completed": trace.completed,
        "flow_id": trace.flow_id,
        "vp": trace.vp_name,
        "hops": [
            {
                "i": hop.index,
                "addr": hop.address,
                "rdns": hop.rdns,
                "rtt": hop.rtt_ms,
                "rttl": hop.reply_ttl,
                "tries": hop.attempts,
            }
            for hop in trace.hops
        ],
    }


def trace_from_dict(payload: "dict[str, object]") -> TraceResult:
    """Round-trip a serialized traceroute."""
    return TraceResult(
        src_address=payload["src"],
        dst_address=payload["dst"],
        hops=[
            Hop(h["i"], h["addr"], h.get("rdns"), h.get("rtt"), h.get("rttl"),
                h.get("tries", 1))
            for h in payload["hops"]
        ],
        completed=payload.get("completed", False),
        flow_id=payload.get("flow_id", 0),
        vp_name=payload.get("vp", ""),
    )


def traces_to_corpus_json(traces: "list[TraceResult]") -> str:
    """Serialize *traces* as the validated ``trace-corpus`` JSON artifact.

    Written straight from the trace objects, so a JSON export needs no
    columnar lift (and no numpy).
    """
    payload = {
        "schema": ARTIFACT_VERSIONS["trace-corpus"],
        "kind": "trace-corpus",
        "traces": [trace_to_dict(trace) for trace in traces],
    }
    return json.dumps(payload, sort_keys=True)


def _parse_record(line: bytes):
    """One whole record: a newline-terminated JSON value."""
    if not line.endswith(b"\n"):
        raise ValueError("unterminated record")
    return json.loads(line)


@dataclass
class _Stage:
    """One stage's folded progress."""

    traces: "list[TraceResult]" = field(default_factory=list)
    done: "list[tuple[str, str]]" = field(default_factory=list)
    complete: bool = False
    #: ``(traces, done, complete)`` as far as the file holds them.
    saved: tuple = (0, 0, False)

    def state(self) -> tuple:
        return len(self.traces), len(self.done), self.complete


class CampaignCheckpoint:
    """One campaign's on-disk progress, divided into named stages.

    Stages are the sweeps of a multi-phase campaign (e.g. ``slash24``,
    ``rdns``, ``followup``); a stage is either *complete* (its traces
    load wholesale on resume) or partial (its done-set is skipped and
    the remaining jobs re-run).

    In memory the checkpoint holds every stage's traces and done keys.
    """

    def __init__(self, path: "str | pathlib.Path") -> None:
        self.path = pathlib.Path(path)
        self._stages: "dict[str, _Stage]" = {}
        #: The campaign's health counters and fault-injector state, as
        #: of the last record.
        self.health: "dict[str, object]" = {}
        self.injector_state: "dict[str, object]" = {}
        #: Byte length of the file's valid prefix; None until this
        #: object has loaded or written the file.
        self._size: "int | None" = None

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: "str | pathlib.Path") -> "CampaignCheckpoint":
        """Read a checkpoint file, validating the header and every record."""
        checkpoint = cls(path)
        try:
            with open(checkpoint.path, "rb") as handle:
                head = handle.readline()
                body = handle.read()
        except FileNotFoundError as exc:
            raise CheckpointError(f"no checkpoint at {checkpoint.path}") from exc
        except OSError as exc:
            raise CheckpointError(
                f"unreadable checkpoint {checkpoint.path}: {exc}"
            ) from exc
        # The header is written together with the first record, by an
        # atomic replace, so it is never torn.
        try:
            validate_artifact(json.loads(head), kind="campaign-checkpoint")
            if not head.endswith(b"\n"):
                raise ValueError("unterminated header")
        except (ValueError, SchemaError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {checkpoint.path} header: {exc}"
            ) from exc
        valid = 0
        try:
            # Folding builds the stored corpus: pause the collector, as a
            # campaign stage does while it builds one.
            with gc_paused():
                records = read_log(body, _parse_record, what="record")
                for number, (end, record) in enumerate(records, start=1):
                    check(record, CHECKPOINT_RECORD, f"record {number}: $")
                    checkpoint._fold(record)
                    valid = end
        except (ValueError, SchemaError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {checkpoint.path}: {exc}"
            ) from exc
        checkpoint._size = len(head) + valid
        return checkpoint

    def _fold(self, record: dict) -> None:
        for name, delta in record["stages"].items():
            stage = self._stages.setdefault(name, _Stage())
            stage.traces.extend(map(trace_from_row, delta["traces"]))
            stage.done.extend(map(tuple, delta["done"]))
            stage.complete = delta["complete"]
            stage.saved = stage.state()
        self.health = record["health"]
        self.injector_state = record["injector"]

    def save(self) -> None:
        """Append one fsynced record of what changed since the last save.

        The first save of a checkpoint that was not loaded from disk
        replaces any file at its path with the header and that record.
        """
        stages = {
            name: {
                "traces": [trace_to_row(t) for t in stage.traces[stage.saved[0]:]],
                "done": stage.done[stage.saved[1]:],
                "complete": stage.complete,
            }
            for name, stage in self._stages.items()
            if stage.state() != stage.saved
        }
        record = {
            "stages": stages,
            "health": self.health,
            "injector": self.injector_state,
        }
        # ASCII-only (json.dumps escapes the rest): one char, one byte.
        line = json.dumps(record, separators=(",", ":"), check_circular=False) + "\n"
        if self._size is None:
            atomic_write_text(self.path, _HEADER + line)
            self._size = len(_HEADER)
        else:
            with open(self.path, "a") as handle:
                # Drops the torn record of a save that never finished.
                handle.truncate(self._size)
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
        self._size += len(line)
        for stage in self._stages.values():
            stage.saved = stage.state()

    # ------------------------------------------------------------------
    def record_stage(
        self,
        name: str,
        traces: "list[TraceResult]",
        done: "list[tuple[str, str]]",
        complete: bool,
    ) -> None:
        """Add a stage's new traces and done job keys for :meth:`save`."""
        stage = self._stages.setdefault(name, _Stage())
        stage.traces.extend(traces)
        stage.done.extend(done)
        stage.complete = complete

    def stage_traces(self, name: str) -> "list[TraceResult]":
        return list(self._stages.get(name, _Stage()).traces)

    def stage_done(self, name: str) -> "set[tuple[str, str]]":
        return set(self._stages.get(name, _Stage()).done)

    def stage_complete(self, name: str) -> bool:
        return self._stages.get(name, _Stage()).complete
