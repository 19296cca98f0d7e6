"""The service's read-only HTTP plane: jobs, artifacts, diffs, events.

``repro service serve`` exposes a shared state directory over stdlib
``http.server`` so clients fetch finished topology artifacts and live
progress without ever touching the journal:

* ``GET /jobs`` — every job's summary plus the store's seq cursor;
* ``GET /jobs/<id>`` — the full validated ``job-record``;
* ``GET /jobs/<id>/artifacts/<name>`` — the artifact's bytes,
  **sha256-verified against the record's digest on every read** (JSON
  artifacts as ``application/json``, binary ``.npz`` corpora as
  ``application/octet-stream``); a digest mismatch is surfaced as 502
  with a one-line ``error:`` body, never as silently corrupt data;
* ``GET /jobs/<a>/diff/<b>`` — the cross-version ``topology-diff``
  computed from both jobs' columnar corpora
  (:mod:`repro.service.diff`);
* ``GET /jobs/<id>/events?after=N`` — a polling cursor over the job's
  journal-event ring; seqs are globally monotonic (they survive
  compaction and server restarts), so a client resumes by replaying
  its last cursor;
* ``GET /metrics`` — the merged per-executor metric exports plus live
  store gauges.

Every request opens the store through its **readonly** inspection mode
— no locks taken, nothing written — so the API process never contends
with executors, and a SIGKILLed API reader cannot wedge the state
directory.  The request core is a pure function
(:meth:`ServiceAPI.handle`: path → status/content-type/body), so tests
exercise every route without sockets.
"""

from __future__ import annotations

import json
import pathlib
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import ReproError, ServiceError
from repro.obs import sha256_bytes
from repro.service.diff import load_job_corpus, topology_diff
from repro.service.store import JobStore
from repro.validate.schema import ARTIFACT_VERSIONS

_JOB_ID = r"[0-9a-f]{12}"
#: Artifact names are single path components written by the executor.
_ARTIFACT_NAME = r"[A-Za-z0-9._-]+"

_ROUTES = [
    ("jobs_index", re.compile(r"^/jobs$")),
    ("job", re.compile(rf"^/jobs/(?P<job_id>{_JOB_ID})$")),
    ("artifact", re.compile(
        rf"^/jobs/(?P<job_id>{_JOB_ID})/artifacts/"
        rf"(?P<name>{_ARTIFACT_NAME})$")),
    ("diff", re.compile(
        rf"^/jobs/(?P<base>{_JOB_ID})/diff/(?P<other>{_JOB_ID})$")),
    ("events", re.compile(rf"^/jobs/(?P<job_id>{_JOB_ID})/events$")),
    ("metrics", re.compile(r"^/metrics$")),
]

_JSON = "application/json"
_TEXT = "text/plain; charset=utf-8"
_BINARY = "application/octet-stream"


def _error(status: int, message: str) -> "tuple[int, str, bytes]":
    """The one-line ``error:`` body every failure mode uses."""
    first_line = str(message).splitlines()[0] if str(message) else "unknown"
    return status, _TEXT, f"error: {first_line}\n".encode()


def _json_body(payload) -> "tuple[int, str, bytes]":
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return 200, _JSON, text.encode()


class ServiceAPI:
    """Pure request core: resolves paths against a readonly store view."""

    def __init__(self, state_dir: "str | pathlib.Path") -> None:
        self.state_dir = pathlib.Path(state_dir)

    # ------------------------------------------------------------------
    def _store(self) -> JobStore:
        """A fresh readonly view per request.

        Opening is cheap (the journal between compactions is bounded)
        and dodges every coherence question a long-lived cached view
        would raise; the readonly open itself retries across a racing
        compaction.
        """
        return JobStore.open(self.state_dir, readonly=True)

    def handle(self, path: str) -> "tuple[int, str, bytes]":
        """Resolve one GET; returns ``(status, content_type, body)``."""
        parts = urlsplit(path)
        query = parse_qs(parts.query)
        for name, pattern in _ROUTES:
            match = pattern.match(parts.path)
            if match:
                try:
                    handler = getattr(self, f"_route_{name}")
                    return handler(query=query, **match.groupdict())
                except ServiceError as exc:
                    # Store-level damage (corrupt snapshot/journal,
                    # unreadable corpus): the upstream is broken, not
                    # the request.
                    return _error(502, str(exc))
        return _error(404, f"no such route: {parts.path}")

    # ------------------------------------------------------------------
    def _summary(self, record) -> "dict[str, object]":
        return {
            "job_id": record.job_id,
            "state": record.state,
            "fidelity": record.fidelity,
            "attempts": record.attempts,
            "artifacts": sorted(record.artifacts),
            "owner": record.lease["owner"] if record.lease else None,
            "name": record.spec.name,
        }

    def _route_jobs_index(self, query) -> "tuple[int, str, bytes]":
        store = self._store()
        return _json_body({
            "seq": store.seq,
            "jobs": {
                job_id: self._summary(record)
                for job_id, record in sorted(store.jobs.items())
            },
        })

    def _route_job(self, job_id: str, query) -> "tuple[int, str, bytes]":
        store = self._store()
        record = store.jobs.get(job_id)
        if record is None:
            return _error(404, f"no such job: {job_id}")
        return _json_body(record.as_dict())

    def _route_artifact(self, job_id: str, name: str,
                        query) -> "tuple[int, str, bytes]":
        store = self._store()
        record = store.jobs.get(job_id)
        if record is None:
            return _error(404, f"no such job: {job_id}")
        meta = record.artifacts.get(name)
        if meta is None:
            return _error(
                404, f"job {job_id} has no artifact {name!r}"
            )
        try:
            data = (store.job_dir(job_id) / name).read_bytes()
        except OSError as exc:
            return _error(502, f"artifact {name} unreadable: {exc}")
        # Content addressing is the contract: bytes that do not hash to
        # the journaled digest are upstream corruption, refused loudly.
        digest = sha256_bytes(data)
        if digest != meta["sha256"]:
            return _error(
                502,
                f"artifact {name} of job {job_id} failed sha256 "
                f"verification (expected {meta['sha256'][:12]}, "
                f"got {digest[:12]})",
            )
        ctype = _JSON if name.endswith(".json") else _BINARY
        return 200, ctype, data

    def _route_diff(self, base: str, other: str,
                    query) -> "tuple[int, str, bytes]":
        store = self._store()
        records = {}
        for job_id in (base, other):
            record = store.jobs.get(job_id)
            if record is None:
                return _error(404, f"no such job: {job_id}")
            if record.state != "done":
                return _error(
                    400, f"job {job_id} is {record.state}, not done"
                )
            records[job_id] = record
        corpora = {}
        for job_id, record in records.items():
            try:
                corpora[job_id] = load_job_corpus(
                    store.job_dir(job_id), record
                )
            except ServiceError as exc:
                # No corpus artifact at all is a bad request; a corpus
                # that exists but will not load is upstream damage.
                if "no corpus artifact" in str(exc):
                    return _error(400, str(exc))
                return _error(502, str(exc))
            except ReproError as exc:
                return _error(502, f"corpus of job {job_id}: {exc}")
        return _json_body(
            topology_diff(base, other, corpora[base], corpora[other])
        )

    def _route_events(self, job_id: str,
                      query) -> "tuple[int, str, bytes]":
        store = self._store()
        record = store.jobs.get(job_id)
        if record is None:
            return _error(404, f"no such job: {job_id}")
        raw_after = query.get("after", ["0"])[-1]
        try:
            after = int(raw_after)
        except ValueError:
            return _error(400, f"bad events cursor: {raw_after!r}")
        events = [
            dict(event) for event in record.events if event["seq"] > after
        ]
        cursor = max(
            [after] + [event["seq"] for event in record.events]
        )
        return _json_body({
            "schema": ARTIFACT_VERSIONS["job-events"],
            "kind": "job-events",
            "job_id": job_id,
            "cursor": cursor,
            "events": events,
        })

    def _route_metrics(self, query) -> "tuple[int, str, bytes]":
        store = self._store()
        executors = {}
        for path in sorted(self.state_dir.glob("service-metrics-*.json")):
            executor_id = path.stem[len("service-metrics-"):]
            try:
                executors[executor_id] = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue  # a flush is mid-replace; next poll catches it
        return _json_body({
            "kind": "service-metrics",
            "executors": executors,
            "store": {
                "seq": store.seq,
                "jobs_total": len(store.jobs),
                "queued": len(store.queued()),
                "running": len(store.running()),
                "terminal": sum(
                    1 for r in store.jobs.values() if r.terminal
                ),
                "rejected": len(store.rejected),
            },
        })


class _Handler(BaseHTTPRequestHandler):
    api: ServiceAPI  # set on the subclass by _handler_class

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            status, ctype, body = self.api.handle(self.path)
        except Exception as exc:  # pragma: no cover - last-ditch guard
            status, ctype, body = _error(502, f"internal error: {exc}")
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass  # request logging is the caller's concern, not stderr's


def _handler_class(api: ServiceAPI):
    return type("BoundHandler", (_Handler,), {"api": api})


class ServiceHTTPServer:
    """A threaded HTTP server over one state directory.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports
    the bound ``host:port`` either way.  The server owns no store
    handle between requests, so stopping (or killing) it leaves the
    state directory untouched.
    """

    def __init__(self, state_dir: "str | pathlib.Path",
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.api = ServiceAPI(state_dir)
        self._server = ThreadingHTTPServer(
            (host, port), _handler_class(self.api)
        )
        self._server.daemon_threads = True
        self._thread: "threading.Thread | None" = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "ServiceHTTPServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def serve_forever(self) -> None:
        """Blocking serve for the CLI; Ctrl-C returns cleanly."""
        try:
            self._server.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self._server.server_close()
