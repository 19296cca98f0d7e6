"""The read-only HTTP plane: routes, verification, events, diffs.

One module-scoped state directory is built by a real service run (one
JSON-corpus job, one binary-corpus job) plus two hand-driven records
(a done job with no corpus artifact, a parked queued job); every test
reads it through :class:`ServiceAPI` (sockets-free) or a live
:class:`ServiceHTTPServer`.
"""

import json
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.errors import ServiceError
from repro.obs import sha256_bytes
from repro.service import (
    CampaignService,
    JobSpec,
    ServiceAPI,
    ServiceHTTPServer,
    load_job_corpus,
)
from repro.service.store import JobStore
from repro.validate.schema import parse_artifact


@pytest.fixture(scope="module")
def plane(tmp_path_factory):
    state_dir = tmp_path_factory.mktemp("http-plane") / "state"
    service = CampaignService(
        state_dir, tick_s=0.001, backoff_base_s=0.001, lease_s=5.0,
    )
    base, _ = service.submit(
        JobSpec(pipeline="toy", seed=1, targets=4, hosts=2)
    )
    other, _ = service.submit(
        JobSpec(pipeline="toy", seed=2, targets=6, hosts=3,
                corpus_format="binary")
    )
    service.run(until_idle=True)
    # A done job with no corpus artifact, driven by hand through the
    # store protocol (claim -> settle) so the diff route's 400 path is
    # reachable without a pipeline that skips corpus export.
    bare, _ = service.store.submit(
        JobSpec(pipeline="toy", seed=3, targets=2, hosts=2, name="bare")
    )
    now = time.time()
    token = service.store.try_claim(
        bare.job_id, "hand", expires_at=now + 60.0, now=now
    )
    assert token is not None
    assert service.store.settle(
        bare.job_id, "hand", token, "done", artifacts={}
    )
    # A queued job nobody ever claims.
    parked, _ = service.store.submit(
        JobSpec(pipeline="toy", seed=4, targets=2, hosts=2, name="parked")
    )
    service.store.close()
    yield SimpleNamespace(
        state_dir=state_dir,
        api=ServiceAPI(state_dir),
        base=base.job_id,
        other=other.job_id,
        bare=bare.job_id,
        parked=parked.job_id,
    )


def _json_of(body):
    return json.loads(body.decode())


def _http_get(port, path):
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _oracle_summary(corpus):
    """(COs, links) recomputed from the ``to_traces`` object graph."""
    traces = corpus.to_traces()
    cos = sorted({
        address for trace in traces
        for address in trace.responsive_addresses()
    })
    links = sorted({
        pair for trace in traces
        for pair in trace.adjacent_pairs(exclude_final_echo=True)
    })
    return cos, [list(pair) for pair in links]


class TestRoutes:
    def test_jobs_index_matches_the_store_snapshot(self, plane):
        status, ctype, body = plane.api.handle("/jobs")
        assert status == 200
        assert ctype == "application/json"
        payload = _json_of(body)
        store = JobStore.open(plane.state_dir, readonly=True)
        assert payload["seq"] == store.seq
        assert set(payload["jobs"]) == set(store.jobs)
        for job_id, summary in payload["jobs"].items():
            record = store.jobs[job_id]
            assert summary["state"] == record.state
            assert summary["attempts"] == record.attempts
            assert summary["artifacts"] == sorted(record.artifacts)

    def test_job_route_returns_the_validated_record(self, plane):
        status, _ctype, body = plane.api.handle(f"/jobs/{plane.base}")
        assert status == 200
        payload = parse_artifact(body.decode(), kind="job-record")
        assert payload["job_id"] == plane.base
        assert payload["state"] == "done"

    def test_metrics_merges_executors_and_store_gauges(self, plane):
        status, _ctype, body = plane.api.handle("/metrics")
        assert status == 200
        payload = _json_of(body)
        assert "executor" in payload["executors"]
        assert payload["store"]["jobs_total"] == 4
        assert payload["store"]["terminal"] == 3
        assert payload["store"]["queued"] == 1


class TestErrorPaths:
    @pytest.mark.parametrize("path", [
        "/",
        "/nope",
        "/jobs/short",  # not a 12-hex job id -> no route matches
        "/jobs/ffffffffffff",
        "/jobs/ffffffffffff/events",
        "/jobs/ffffffffffff/artifacts/corpus.json",
    ])
    def test_unknown_routes_and_jobs_are_404(self, plane, path):
        status, ctype, body = plane.api.handle(path)
        assert status == 404
        assert ctype.startswith("text/plain")
        assert body.startswith(b"error: ")
        assert body.decode().count("\n") == 1  # one-line contract

    def test_unknown_artifact_is_404(self, plane):
        status, _ctype, body = plane.api.handle(
            f"/jobs/{plane.base}/artifacts/missing.json"
        )
        assert status == 404
        assert b"has no artifact" in body

    def test_bad_events_cursor_is_400(self, plane):
        status, _ctype, body = plane.api.handle(
            f"/jobs/{plane.base}/events?after=bogus"
        )
        assert status == 400
        assert body == b"error: bad events cursor: 'bogus'\n"


class TestArtifacts:
    def test_json_artifact_served_byte_identical(self, plane):
        status, ctype, body = plane.api.handle(
            f"/jobs/{plane.base}/artifacts/corpus.json"
        )
        assert status == 200
        assert ctype == "application/json"
        on_disk = plane.state_dir / "jobs" / plane.base / "corpus.json"
        assert body == on_disk.read_bytes()

    def test_binary_artifact_served_byte_identical(self, plane):
        status, ctype, body = plane.api.handle(
            f"/jobs/{plane.other}/artifacts/corpus.npz"
        )
        assert status == 200
        assert ctype == "application/octet-stream"
        on_disk = plane.state_dir / "jobs" / plane.other / "corpus.npz"
        assert body == on_disk.read_bytes()
        store = JobStore.open(plane.state_dir, readonly=True)
        meta = store.jobs[plane.other].artifacts["corpus.npz"]
        assert sha256_bytes(body) == meta["sha256"]

    @pytest.mark.parametrize("name_attr,artifact", [
        ("base", "corpus.json"),
        ("other", "corpus.npz"),
    ])
    def test_corrupted_artifact_is_502_not_silent(self, plane, name_attr,
                                                  artifact):
        job_id = getattr(plane, name_attr)
        path = plane.state_dir / "jobs" / job_id / artifact
        original = path.read_bytes()
        path.write_bytes(b"tampered\nbytes")
        try:
            status, ctype, body = plane.api.handle(
                f"/jobs/{job_id}/artifacts/{artifact}"
            )
        finally:
            path.write_bytes(original)
        assert status == 502
        assert ctype.startswith("text/plain")
        assert body.startswith(b"error: ")
        assert b"sha256" in body
        assert body.decode().count("\n") == 1
        # The pristine bytes serve again after restoration.
        status, _ctype, body = plane.api.handle(
            f"/jobs/{job_id}/artifacts/{artifact}"
        )
        assert status == 200
        assert body == original


class TestDiff:
    def test_diff_matches_the_object_graph_oracle(self, plane):
        status, _ctype, body = plane.api.handle(
            f"/jobs/{plane.base}/diff/{plane.other}"
        )
        assert status == 200
        payload = parse_artifact(body.decode(), kind="topology-diff")
        store = JobStore.open(plane.state_dir, readonly=True)
        summaries = {}
        for job_id in (plane.base, plane.other):
            corpus = load_job_corpus(
                store.job_dir(job_id), store.jobs[job_id]
            )
            summaries[job_id] = _oracle_summary(corpus)
        base_cos, base_links = summaries[plane.base]
        other_cos, other_links = summaries[plane.other]
        assert payload["cos_added"] == sorted(
            set(other_cos) - set(base_cos)
        )
        assert payload["cos_removed"] == sorted(
            set(base_cos) - set(other_cos)
        )
        as_pairs = lambda links: {tuple(pair) for pair in links}  # noqa: E731
        assert as_pairs(payload["links_added"]) == (
            as_pairs(other_links) - as_pairs(base_links)
        )
        assert as_pairs(payload["links_removed"]) == (
            as_pairs(base_links) - as_pairs(other_links)
        )
        assert payload["counts"] == {
            "base_cos": len(base_cos),
            "other_cos": len(other_cos),
            "base_links": len(base_links),
            "other_links": len(other_links),
        }
        # hosts=2 vs hosts=3 substrates genuinely differ, so the diff
        # is exercising more than empty-set equality.
        assert payload["cos_added"] or payload["cos_removed"]

    def test_diff_is_symmetricly_inverted(self, plane):
        _s, _c, forward = plane.api.handle(
            f"/jobs/{plane.base}/diff/{plane.other}"
        )
        _s, _c, backward = plane.api.handle(
            f"/jobs/{plane.other}/diff/{plane.base}"
        )
        fwd, bwd = _json_of(forward), _json_of(backward)
        assert fwd["cos_added"] == bwd["cos_removed"]
        assert fwd["links_removed"] == bwd["links_added"]

    def test_diff_of_a_queued_job_is_400(self, plane):
        status, _ctype, body = plane.api.handle(
            f"/jobs/{plane.parked}/diff/{plane.base}"
        )
        assert status == 400
        assert b"is queued, not done" in body

    def test_diff_without_a_corpus_artifact_is_400(self, plane):
        status, _ctype, body = plane.api.handle(
            f"/jobs/{plane.base}/diff/{plane.bare}"
        )
        assert status == 400
        assert b"no corpus artifact" in body


#: Decodable ``corpus.json`` payloads that are not trace lists, and the
#: JSON path each one fails at.
_BAD_CORPORA = {
    "missing-src": ([{"dst": "198.18.5.1", "hops": []}], "$[0].src"),
    "not-an-object": ([3], "$[0]"),
    "hop-without-addr": (
        [{"src": "10.0.0.1", "dst": "198.18.5.1", "hops": [{"i": 1}]}],
        "$[0].hops[0].addr",
    ),
}


@pytest.fixture(params=sorted(_BAD_CORPORA))
def bad_corpus(plane, request):
    """The base job's ``corpus.json`` replaced by one bad payload."""
    payload, where = _BAD_CORPORA[request.param]
    path = plane.state_dir / "jobs" / plane.base / "corpus.json"
    original = path.read_bytes()
    path.write_text(json.dumps(payload))
    yield where
    path.write_bytes(original)


class TestCorruptJsonCorpus:
    def test_load_raises_a_service_error(self, plane, bad_corpus):
        store = JobStore.open(plane.state_dir, readonly=True)
        with pytest.raises(ServiceError, match="corrupt corpus artifact") as info:
            load_job_corpus(store.job_dir(plane.base), store.jobs[plane.base])
        assert f"{bad_corpus}:" in str(info.value)

    def test_diff_is_502_naming_the_entry(self, plane, bad_corpus):
        server = ServiceHTTPServer(plane.state_dir, port=0).start()
        try:
            status, body = _http_get(
                server.port, f"/jobs/{plane.base}/diff/{plane.other}"
            )
        finally:
            server.stop()
        assert status == 502
        assert body.startswith(b"error: corrupt corpus artifact")
        assert f"{bad_corpus}:".encode() in body
        assert body.decode().count("\n") == 1


class TestEventsOverHTTP:
    def test_cursor_is_monotonic_across_a_server_restart(self, plane):
        server = ServiceHTTPServer(plane.state_dir, port=0).start()
        try:
            status, body = _http_get(
                server.port, f"/jobs/{plane.base}/events"
            )
        finally:
            server.stop()
        assert status == 200
        first = parse_artifact(body.decode(), kind="job-events")
        seqs = [event["seq"] for event in first["events"]]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        ops = [event["op"] for event in first["events"]]
        assert ops[0] == "submit"
        assert ops[-1] == "done"
        assert first["cursor"] == seqs[-1]

        # A brand-new server over the same state dir: replaying the
        # old cursor yields nothing new and never rewinds.
        server = ServiceHTTPServer(plane.state_dir, port=0).start()
        try:
            status, body = _http_get(
                server.port,
                f"/jobs/{plane.base}/events?after={first['cursor']}",
            )
            assert status == 200
            resumed = parse_artifact(body.decode(), kind="job-events")
            assert resumed["events"] == []
            assert resumed["cursor"] == first["cursor"]
            status, body = _http_get(
                server.port, f"/jobs/{plane.base}/events"
            )
            assert parse_artifact(
                body.decode(), kind="job-events"
            ) == first
            # Error bodies travel the socket path too.
            status, body = _http_get(server.port, "/jobs/ffffffffffff")
            assert status == 404
            assert body.startswith(b"error: ")
        finally:
            server.stop()
