"""Crash-safe on-disk job store: shared append-only journal + snapshot.

The service must never lose a submitted job, no matter where it is
SIGKILLed — and since PR 9, *several* executor processes share one
state directory.  The store gets both from two files and three rules:

* ``journal.jsonl`` — an append-only log of state transitions, one
  JSON object per line, fsynced per append.  Every mutation goes
  through :meth:`JobStore.append`, which writes the line *before*
  applying it to memory — the write-ahead rule.
* ``snapshot.json`` — a validated ``service-snapshot`` artifact written
  atomically (:func:`repro.io.atomic.atomic_write_text`) by
  :meth:`JobStore.compact`; the journal is then truncated.  A crash
  between the two is safe: journal lines at or below the snapshot's
  ``seq`` are skipped on replay.
* **Lock-mediated appends** — writers do not hold the state directory
  for their lifetime.  Every append (and every compaction) runs inside
  a short ``flock`` critical section on ``state_dir/lock``: refresh
  the in-memory view from disk, validate the transition against that
  view, write-ahead, apply, release.  N executors therefore interleave
  at journal-line granularity, never inside one.  Compaction is
  *elected* by the same lock: whichever writer trips the threshold
  while holding it compacts; everyone else detects the truncated
  journal (the snapshot's stat signature changed) and reloads.

Concurrency-safe transitions layer on top as compare-and-swap over the
replayed view: :meth:`try_claim` leases a job only if it is still
queued *after* refreshing under the lock, and returns a **fencing
token** (the ``start`` entry's journal seq).  :meth:`try_heartbeat` and
:meth:`settle` re-validate ``(owner, token)`` under the lock before
appending, so an executor whose lease was reclaimed after expiry can
never extend, complete, or fail the job out from under the new owner —
its appends are refused *before* they reach the journal, which keeps
replay deterministic: every journal line is a valid transition.

On restart :meth:`JobStore.open` loads the snapshot (if any) and
replays the journal tail.  A **torn final line** — the half-written
append of a crashed process — is expected damage: a writable open (or
refresh) truncates it under the lock; a ``readonly`` open repairs it
*in memory only* and never rewrites the journal.  A corrupt line
*before* the tail, or a corrupt snapshot, is real corruption and
raises :class:`~repro.errors.ServiceError` (the CLI surfaces it as a
one-line ``error:`` and exit 3).

Replay is deterministic because every journal op carries **all** the
data its transition needs (artifact digests, backoff deadlines, lease
expiries); applying an op never consults the wall clock or any state
outside the record it names.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field

try:  # pragma: no cover - always present on the linux CI image
    import fcntl
except ImportError:  # pragma: no cover - non-posix fallback
    fcntl = None

from repro.errors import ServiceError
from repro.io.atomic import atomic_write_text, read_log
from repro.service.spec import JobSpec, job_id_for, spec_hash
from repro.validate.schema import (
    ARTIFACT_VERSIONS,
    validate_artifact,
)

#: Journal appends between automatic compactions.
COMPACT_EVERY = 200

#: Per-record event-ring size: enough for every attempt of a bounded
#: retry budget with heartbeats, small enough to keep snapshots lean.
EVENTS_KEEP = 100

#: How many times a readonly open re-reads when a compaction races it.
_READONLY_RETRIES = 5

#: Job states.  ``queued`` and ``running`` are live; ``done`` and
#: ``failed`` are terminal.
STATES = ("queued", "running", "done", "failed")
TERMINAL_STATES = ("done", "failed")

#: Journal-entry fields folded into the per-record event detail string.
_EVENT_DETAIL_FIELDS = ("owner", "fidelity", "outcome", "reason", "error")


def _parse_entry(line: bytes) -> dict:
    entry = json.loads(line)
    if not isinstance(entry, dict) or "seq" not in entry or "op" not in entry:
        raise ValueError("not a journal entry")
    return entry


@dataclass
class JobRecord:
    """One job's full lifecycle, serializable as a ``job-record``."""

    job_id: str
    spec: JobSpec
    spec_hash: str
    state: str = "queued"
    fidelity: str = "full"
    attempts: int = 0
    attempt_log: "list[dict]" = field(default_factory=list)
    not_before: float = 0.0
    lease: "dict | None" = None
    artifacts: "dict[str, dict]" = field(default_factory=dict)
    failure: "dict | None" = None
    submitted_seq: int = 0
    dedup_count: int = 0
    #: Bounded ring of journal events touching this job — the HTTP
    #: events endpoint's cursor source.  Survives compaction because it
    #: rides the record into every snapshot.
    events: "list[dict]" = field(default_factory=list)

    # ------------------------------------------------------------------
    def open_attempt(self) -> "dict | None":
        """The in-flight attempt entry, if one is open."""
        if self.attempt_log and self.attempt_log[-1]["finished_at"] is None:
            return self.attempt_log[-1]
        return None

    def lease_expired(self, now: float) -> bool:
        return self.lease is not None and self.lease["expires_at"] <= now

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    # ------------------------------------------------------------------
    def as_dict(self) -> "dict[str, object]":
        """The validated ``job-record`` artifact payload."""
        return {
            "schema": ARTIFACT_VERSIONS["job-record"],
            "kind": "job-record",
            "job_id": self.job_id,
            "spec_hash": self.spec_hash,
            "spec": self.spec.as_dict(),
            "state": self.state,
            "fidelity": self.fidelity,
            "attempts": self.attempts,
            "attempt_log": [dict(entry) for entry in self.attempt_log],
            "not_before": self.not_before,
            "lease": dict(self.lease) if self.lease is not None else None,
            "artifacts": {
                name: dict(meta) for name, meta in sorted(self.artifacts.items())
            },
            "failure": dict(self.failure) if self.failure is not None else None,
            "submitted_seq": self.submitted_seq,
            "dedup_count": self.dedup_count,
            "events": [dict(event) for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: "dict[str, object]") -> "JobRecord":
        validate_artifact(payload, kind="job-record")
        return cls(
            job_id=payload["job_id"],
            spec=JobSpec.from_dict(payload["spec"]),
            spec_hash=payload["spec_hash"],
            state=payload["state"],
            fidelity=payload["fidelity"],
            attempts=payload["attempts"],
            attempt_log=[dict(entry) for entry in payload["attempt_log"]],
            not_before=payload["not_before"],
            lease=dict(payload["lease"]) if payload["lease"] else None,
            artifacts={k: dict(v) for k, v in payload["artifacts"].items()},
            failure=dict(payload["failure"]) if payload["failure"] else None,
            submitted_seq=payload["submitted_seq"],
            dedup_count=payload["dedup_count"],
            events=[dict(event) for event in payload.get("events", [])],
        )


def job_record_to_json(record: JobRecord) -> str:
    """Serialize a record as a validated ``job-record`` artifact."""
    return json.dumps(record.as_dict(), indent=2, sort_keys=True)


def job_record_from_json(text: str) -> JobRecord:
    from repro.validate.schema import parse_artifact

    return JobRecord.from_dict(parse_artifact(text, kind="job-record"))


def _stat_sig(path: pathlib.Path) -> "tuple[int, int, int] | None":
    """A cheap change-detection signature (inode, size, mtime)."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


class JobStore:
    """The service's persistent state: jobs, rejections, the journal.

    All mutation goes through :meth:`append` (optionally wrapped in a
    :meth:`transact` critical section for compare-and-swap sequences);
    read access goes through :attr:`jobs` and the query helpers.  Any
    number of writing processes may share one state directory — the
    per-append lock serializes them — and any number of ``readonly``
    inspectors may read concurrently without ever taking the lock.
    Cross-process submission rides the ``inbox/`` spool directory or
    the journal, dedup makes both idempotent.
    """

    def __init__(self, state_dir: "str | pathlib.Path",
                 clock=time.time, readonly: bool = False) -> None:
        self.state_dir = pathlib.Path(state_dir)
        self.journal_path = self.state_dir / "journal.jsonl"
        self.snapshot_path = self.state_dir / "snapshot.json"
        self.inbox_dir = self.state_dir / "inbox"
        self.jobs_dir = self.state_dir / "jobs"
        self.clock = clock
        self.readonly = readonly
        self.jobs: "dict[str, JobRecord]" = {}
        self.rejected: "list[dict]" = []
        self.seq = 0
        self._journal_fd = None
        self._since_compact = 0
        #: Reentrant: the heartbeat thread appends while the main
        #: thread may be mid-append/compact.
        self._mutex = threading.RLock()
        self._lock_fd = None
        self._lock_depth = 0
        self._snapshot_sig: "tuple | None" = None
        self._journal_sig: "tuple | None" = None
        self._executor_lock_fd = None

    # ------------------------------------------------------------------
    # Load / replay
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, state_dir: "str | pathlib.Path",
             clock=time.time, readonly: bool = False) -> "JobStore":
        """Load (or initialize) the store at *state_dir*.

        Replays snapshot + journal; corruption anywhere but the torn
        final journal line raises :class:`ServiceError`.  A writable
        open creates the state layout and repairs a torn journal tail
        under the append lock.  ``readonly`` opens (status inspection,
        the HTTP API) create nothing, never take the lock, and never
        mutate anything on disk — including the torn-tail repair, which
        happens in memory only.
        """
        store = cls(state_dir, clock=clock, readonly=readonly)
        if readonly:
            store._reload_readonly()
            return store
        store.state_dir.mkdir(parents=True, exist_ok=True)
        store.inbox_dir.mkdir(exist_ok=True)
        store.jobs_dir.mkdir(exist_ok=True)
        with store._mutex, store._locked():
            store._reload()
        return store

    # -- locking -------------------------------------------------------
    @contextlib.contextmanager
    def _locked(self):
        """The cross-process append lock; reentrant within a process.

        ``flock`` locks belong to the open file description, so thread
        mutual exclusion must come from :attr:`_mutex` — every caller
        holds it around this context.  The kernel releases the lock on
        SIGKILL, so a dead writer never wedges the state directory.
        """
        if self.readonly:
            raise ServiceError("job store was opened read-only")
        if fcntl is None:  # pragma: no cover - non-posix fallback
            yield
            return
        if self._lock_fd is None:
            self._lock_fd = os.open(
                self.state_dir / "lock", os.O_CREAT | os.O_RDWR, 0o644
            )
        self._lock_depth += 1
        try:
            if self._lock_depth == 1:
                fcntl.flock(self._lock_fd, fcntl.LOCK_EX)
            yield
        finally:
            self._lock_depth -= 1
            if self._lock_depth == 0:
                fcntl.flock(self._lock_fd, fcntl.LOCK_UN)

    def acquire_executor_lock(self, executor_id: str) -> None:
        """Claim this executor id for the lifetime of the process.

        Guards two invariants the lease protocol leans on: no two live
        processes share an executor id (so own-lease recovery at
        startup is safe — the previous incarnation provably died), and
        a restart of the same id can immediately reclaim its own
        leases.  Released by :meth:`close` or process death.
        """
        if fcntl is None:  # pragma: no cover - non-posix fallback
            return
        lock_dir = self.state_dir / "executors"
        lock_dir.mkdir(exist_ok=True)
        fd = os.open(lock_dir / f"{executor_id}.lock",
                     os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise ServiceError(
                f"executor id {executor_id!r} is already running against "
                f"{self.state_dir}"
            ) from None
        self._executor_lock_fd = fd

    # -- refresh -------------------------------------------------------
    def _state_changed(self) -> bool:
        return (
            _stat_sig(self.snapshot_path) != self._snapshot_sig
            or _stat_sig(self.journal_path) != self._journal_sig
        )

    def _reload(self) -> None:
        """Rebuild the in-memory view from disk (caller holds the lock).

        The journal between compactions is bounded (``COMPACT_EVERY``
        lines), so a full rebuild is cheap and — unlike incremental
        tailing — trivially immune to the compaction-truncates-the-file
        race.
        """
        self.jobs = {}
        self.rejected = []
        self.seq = 0
        self._snapshot_sig = _stat_sig(self.snapshot_path)
        snapshot_seq = self._load_snapshot()
        self._replay_journal(snapshot_seq)
        self._journal_sig = _stat_sig(self.journal_path)

    def _reload_readonly(self) -> None:
        """Rebuild without the lock, retrying across a racing compaction.

        A reader can catch compaction between its snapshot read and its
        journal read (stale snapshot + already-truncated journal).  The
        snapshot's stat signature changing across the reload detects
        exactly that window; a bounded retry converges because
        compactions are rare relative to a read.  The stale pair may
        not even replay — the new journal can name a job the old
        snapshot lacks — so a failed reload is retried in that window
        too, and re-raised only when the snapshot held still.
        """
        for _ in range(_READONLY_RETRIES):
            before = _stat_sig(self.snapshot_path)
            try:
                self._reload()
            except ServiceError:
                if _stat_sig(self.snapshot_path) == before:
                    raise
                continue
            if _stat_sig(self.snapshot_path) == before:
                return
        raise ServiceError(
            f"state dir {self.state_dir} is compacting faster than it "
            "can be read"
        )

    def refresh(self) -> None:
        """Sync the in-memory view with other writers' appends.

        Cheap when nothing changed (two ``stat`` calls).  Writable
        stores refresh under the lock; readonly stores use the
        compaction-retry read path.
        """
        if self.readonly:
            if self._state_changed():
                self._reload_readonly()
            return
        with self._mutex:
            if not self._state_changed():
                return
            with self._locked():
                if self._state_changed():
                    self._reload()

    def _load_snapshot(self) -> int:
        if not self.snapshot_path.exists():
            return 0
        try:
            payload = json.loads(self.snapshot_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ServiceError(
                f"corrupt service snapshot {self.snapshot_path}: {exc}"
            ) from exc
        try:
            validate_artifact(payload, kind="service-snapshot")
            self.jobs = {
                job_id: JobRecord.from_dict(record)
                for job_id, record in payload["jobs"].items()
            }
        except ServiceError:
            raise
        except Exception as exc:  # SchemaError and friends
            raise ServiceError(
                f"corrupt service snapshot {self.snapshot_path}: {exc}"
            ) from exc
        self.rejected = [dict(entry) for entry in payload["rejected"]]
        self.seq = payload["seq"]
        return payload["seq"]

    def _replay_journal(self, snapshot_seq: int) -> None:
        """Apply journal lines past the snapshot; truncate a torn tail."""
        if not self.journal_path.exists():
            return
        data = self.journal_path.read_bytes()
        try:
            entries = list(read_log(data, _parse_entry))
        except ValueError as exc:
            raise ServiceError(f"corrupt service journal {self.journal_path} {exc}") from exc
        for _end, entry in entries:
            if entry["seq"] <= snapshot_seq:
                continue
            self._apply(entry)
            self.seq = entry["seq"]
        valid_end = entries[-1][0] if entries else 0
        if valid_end < len(data) and not self.readonly:
            # Caller holds the append lock, so the torn bytes belong to
            # a provably dead writer (live appends are serialized and
            # fsynced before the lock is released).
            os.truncate(self.journal_path, valid_end)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _fd(self):
        """The append handle, reopened when compaction replaced the file."""
        if self._journal_fd is not None:
            try:
                same = os.fstat(self._journal_fd.fileno()).st_ino \
                    == os.stat(self.journal_path).st_ino
            except FileNotFoundError:
                same = False
            if not same:
                self._journal_fd.close()
                self._journal_fd = None
        if self._journal_fd is None:
            self._journal_fd = open(self.journal_path, "a")
        return self._journal_fd

    @contextlib.contextmanager
    def transact(self):
        """A compare-and-swap critical section over the fresh view.

        Holds the cross-process append lock, refreshes the in-memory
        view, and yields; every check made and :meth:`append` issued
        inside the block is atomic with respect to other writers.
        """
        with self._mutex:
            with self._locked():
                if self._state_changed():
                    self._reload()
                yield self

    def append(self, op: str, **fields) -> "dict[str, object]":
        """Write one journal line (write-ahead) and apply it.

        Runs in its own critical section when not already inside a
        :meth:`transact` block (the lock is reentrant), so the seq it
        assigns is globally unique across all writing processes.
        """
        if self.readonly:
            raise ServiceError("job store was opened read-only")
        with self._mutex:
            with self._locked():
                if self._state_changed():
                    self._reload()
                self.seq += 1
                entry = {
                    "seq": self.seq, "op": op, "at": float(self.clock()),
                    **fields,
                }
                handle = self._fd()
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
                self._apply(entry)
                self._journal_sig = _stat_sig(self.journal_path)
                self._since_compact += 1
                if self._since_compact >= COMPACT_EVERY:
                    self.compact()
                return entry

    def compact(self) -> None:
        """Snapshot atomically, then truncate the journal.

        Crash-safe in both orders of failure: an old journal's lines
        replay as no-ops below the snapshot seq, and a missing snapshot
        just means a longer replay.  Election to exactly one writer is
        by the append lock: whoever holds it compacts; every other
        writer sees the snapshot signature change and reloads instead.
        """
        if self.readonly:
            raise ServiceError("job store was opened read-only")
        with self._mutex:
            with self._locked():
                if self._state_changed():
                    self._reload()
                payload = {
                    "schema": ARTIFACT_VERSIONS["service-snapshot"],
                    "kind": "service-snapshot",
                    "seq": self.seq,
                    "jobs": {
                        job_id: record.as_dict()
                        for job_id, record in sorted(self.jobs.items())
                    },
                    "rejected": list(self.rejected),
                }
                atomic_write_text(
                    self.snapshot_path, json.dumps(payload, sort_keys=True)
                )
                if self._journal_fd is not None:
                    self._journal_fd.close()
                    self._journal_fd = None
                atomic_write_text(self.journal_path, "")
                self._snapshot_sig = _stat_sig(self.snapshot_path)
                self._journal_sig = _stat_sig(self.journal_path)
                self._since_compact = 0

    def close(self) -> None:
        with self._mutex:
            if self._journal_fd is not None:
                self._journal_fd.close()
                self._journal_fd = None
        if self._lock_fd is not None:
            os.close(self._lock_fd)
            self._lock_fd = None
        if self._executor_lock_fd is not None:
            if fcntl is not None:  # pragma: no branch
                fcntl.flock(self._executor_lock_fd, fcntl.LOCK_UN)
            os.close(self._executor_lock_fd)
            self._executor_lock_fd = None

    # ------------------------------------------------------------------
    # Compare-and-swap transitions (the multi-executor protocol)
    # ------------------------------------------------------------------
    def try_claim(self, job_id: str, owner: str, expires_at: float,
                  now: float) -> "int | None":
        """Lease *job_id* if it is still claimable; returns the token.

        The claim is compare-and-swap over the refreshed view: under
        the lock the job must still be ``queued`` with its backoff
        deadline passed.  The returned fencing token (the ``start``
        entry's seq) must accompany every later heartbeat/settle for
        this attempt.  ``None`` means another executor won the race.
        """
        with self.transact():
            record = self.jobs.get(job_id)
            if record is None or record.state != "queued" \
                    or record.not_before > now:
                return None
            entry = self.append(
                "start", job_id=job_id, owner=owner,
                expires_at=expires_at, fidelity=record.fidelity,
            )
            return entry["seq"]

    def lease_valid(self, job_id: str, owner: str, token: int) -> bool:
        """Whether ``(owner, token)`` still holds the job's lease.

        Only meaningful against a fresh view — call inside
        :meth:`transact` (or right after a CAS helper refreshed).
        """
        record = self.jobs.get(job_id)
        return (
            record is not None
            and record.state == "running"
            and record.lease is not None
            and record.lease["owner"] == owner
            and record.lease.get("token") == token
        )

    def try_heartbeat(self, job_id: str, owner: str, token: int,
                      expires_at: float) -> bool:
        """Extend the lease iff it is still ours; False means it was lost."""
        with self.transact():
            if not self.lease_valid(job_id, owner, token):
                return False
            self.append("heartbeat", job_id=job_id, expires_at=expires_at)
            return True

    def settle(self, job_id: str, owner: str, token: int, op: str,
               **fields) -> bool:
        """Close our attempt with *op* iff the lease is still ours.

        The fencing check makes a zombie executor (lease reclaimed
        after expiry) unable to record ``done``/``retry``/``failed``/
        ``release`` over the new owner's attempt.
        """
        with self.transact():
            if not self.lease_valid(job_id, owner, token):
                return False
            self.append(op, job_id=job_id, **fields)
            return True

    # ------------------------------------------------------------------
    # The state machine
    # ------------------------------------------------------------------
    def _apply(self, entry: "dict[str, object]") -> None:
        op = entry["op"]
        handler = getattr(self, f"_op_{op.replace('-', '_')}", None)
        if handler is None:
            raise ServiceError(f"unknown journal op {op!r} (seq {entry['seq']})")
        handler(entry)
        job_id = entry.get("job_id")
        record = self.jobs.get(job_id) if isinstance(job_id, str) else None
        if record is not None:
            record.events.append(_event_for(entry))
            del record.events[:-EVENTS_KEEP]

    def _record(self, entry) -> JobRecord:
        record = self.jobs.get(entry["job_id"])
        if record is None:
            raise ServiceError(
                f"journal names unknown job {entry['job_id']!r} "
                f"(seq {entry['seq']})"
            )
        return record

    def _op_submit(self, entry) -> None:
        spec = JobSpec.from_dict(entry["spec"])
        record = JobRecord(
            job_id=entry["job_id"],
            spec=spec,
            spec_hash=entry["spec_hash"],
            state="queued",
            fidelity=spec.fidelity,
            not_before=entry.get("not_before", 0.0),
            submitted_seq=entry["seq"],
        )
        self.jobs[record.job_id] = record

    def _op_dedup(self, entry) -> None:
        self._record(entry).dedup_count += 1

    def _op_reject(self, entry) -> None:
        self.rejected.append({
            "spec_hash": entry["spec_hash"],
            "reason": entry["reason"],
            "at": entry["at"],
        })

    def _op_start(self, entry) -> None:
        record = self._record(entry)
        record.state = "running"
        record.attempts += 1
        record.fidelity = entry["fidelity"]
        record.lease = {
            "owner": entry["owner"],
            "expires_at": entry["expires_at"],
            # The fencing token: the seq of this very entry, so replay
            # reconstructs it without a second source of truth.
            "token": entry["seq"],
        }
        record.attempt_log.append({
            "attempt": record.attempts,
            "executor": entry["owner"],
            "fidelity": entry["fidelity"],
            "outcome": "running",
            "error": None,
            "degraded": False,
            "started_at": entry["at"],
            "finished_at": None,
        })

    def _op_heartbeat(self, entry) -> None:
        record = self._record(entry)
        if record.lease is not None:
            record.lease["expires_at"] = entry["expires_at"]

    def _close_attempt(self, record, entry, outcome, error=None,
                       degraded=False) -> None:
        attempt = record.open_attempt()
        if attempt is not None:
            attempt["outcome"] = outcome
            attempt["error"] = error
            attempt["degraded"] = bool(degraded)
            attempt["finished_at"] = entry["at"]
        record.lease = None

    def _op_done(self, entry) -> None:
        record = self._record(entry)
        self._close_attempt(record, entry, "done",
                            degraded=entry.get("degraded", False))
        record.state = "done"
        record.artifacts = {
            name: dict(meta) for name, meta in entry["artifacts"].items()
        }

    def _op_retry(self, entry) -> None:
        record = self._record(entry)
        self._close_attempt(record, entry, entry.get("outcome", "error"),
                            error=entry.get("error"),
                            degraded=entry.get("degraded", False))
        record.state = "queued"
        record.not_before = entry["not_before"]
        record.fidelity = entry["fidelity"]

    def _op_failed(self, entry) -> None:
        record = self._record(entry)
        self._close_attempt(record, entry, "error", error=entry.get("error"))
        record.state = "failed"
        record.failure = {
            "reason": entry["reason"],
            "artifact": entry.get("artifact"),
        }
        record.artifacts = {
            name: dict(meta)
            for name, meta in entry.get("artifacts", {}).items()
        }

    def _op_release(self, entry) -> None:
        record = self._record(entry)
        self._close_attempt(record, entry, "interrupted",
                            error=entry.get("reason"))
        record.state = "queued"
        record.not_before = entry.get("not_before", 0.0)

    # ------------------------------------------------------------------
    # Submission / queries
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> "tuple[JobRecord, bool]":
        """Admit *spec*; returns ``(record, created)``.

        An identical spec (by content hash) dedupes to the existing
        job — including a finished one, whose cached artifacts satisfy
        the resubmission for free.  The existence check and the journal
        write share one critical section, so two executors ingesting
        the same spool file concurrently still create exactly one job.
        """
        with self.transact():
            digest = spec_hash(spec)
            job_id = job_id_for(spec)
            existing = self.jobs.get(job_id)
            if existing is not None:
                self.append("dedup", job_id=job_id)
                return self.jobs[job_id], False
            self.append("submit", job_id=job_id, spec_hash=digest,
                        spec=spec.as_dict(), not_before=0.0)
            return self.jobs[job_id], True

    def reject(self, spec: JobSpec, reason: str) -> None:
        self.append("reject", spec_hash=spec_hash(spec), reason=reason)

    def queued(self) -> "list[JobRecord]":
        return [r for r in self.jobs.values() if r.state == "queued"]

    def running(self) -> "list[JobRecord]":
        return [r for r in self.jobs.values() if r.state == "running"]

    def live_count(self) -> int:
        """Jobs occupying queue capacity (non-terminal)."""
        return sum(1 for r in self.jobs.values() if not r.terminal)

    def all_terminal(self) -> bool:
        return all(r.terminal for r in self.jobs.values())

    def job_dir(self, job_id: str) -> pathlib.Path:
        return self.jobs_dir / job_id


def _event_for(entry: "dict[str, object]") -> "dict[str, object]":
    """The compact per-record event derived from a journal entry."""
    event = {"seq": entry["seq"], "op": entry["op"], "at": entry["at"]}
    parts = [
        f"{name}={entry[name]}" for name in _EVENT_DETAIL_FIELDS
        if entry.get(name) not in (None, "")
    ]
    if parts:
        event["detail"] = " ".join(parts)
    return event
