"""Typed schemas for every JSON artifact the repo reads or writes.

The paper's pipeline consumes data that disagrees with itself — stale
rDNS, conflicting alias evidence, snapshots that lag the live zone
(§4–§5, App. B) — so every artifact that crosses a process boundary is
validated *structurally* before any field is trusted.  A failed check
raises :class:`~repro.errors.SchemaError` whose message names the JSON
path of the offending value (``$.edges[3].observations: expected int,
got str``) instead of the raw ``KeyError``/``TypeError`` an ad-hoc
``payload["..."]`` access would produce.

The schema language is deliberately tiny: a spec is a Python type (or
tuple of types), a nested ``dict`` schema, :class:`ListOf`,
:class:`TupleOf` (fixed-length positional arrays), :class:`MapOf`
(string-keyed objects), :class:`Opt` (optional key), or the :data:`ANY`
sentinel.  ``bool`` is *not* accepted where ``int`` is expected,
mirroring how JSON distinguishes the two.
"""

from __future__ import annotations

import json

from repro.errors import SchemaError

#: Current version of every artifact kind this repo emits.
ARTIFACT_VERSIONS = {
    "cable-region": 1,
    "telco-region": 1,
    "mobile-carrier": 1,
    "campaign-health": 1,
    "campaign-checkpoint": 2,
    "quarantine-report": 1,
    "run-manifest": 1,
    "job-spec": 1,
    "job-record": 1,
    "service-snapshot": 1,
    "trace-corpus": 1,
    "topology-diff": 1,
    "job-events": 1,
    "bias-report": 1,
}


class ListOf:
    """A JSON array whose items all match *item*."""

    def __init__(self, item) -> None:
        self.item = item


class TupleOf:
    """A JSON array of exactly ``len(items)`` values, matched in order."""

    def __init__(self, *items) -> None:
        self.items = items
        #: Per item, the value types that skip the full check: its bare
        #: types, matched exactly (an int for a float takes the check).
        self.exact = tuple(item if type(item) is tuple else (item,) for item in items)


class MapOf:
    """A JSON object with arbitrary string keys and *value*-typed values."""

    def __init__(self, value) -> None:
        self.value = value


class Opt:
    """A dict key that may be absent (but must match *spec* if present)."""

    def __init__(self, spec) -> None:
        self.spec = spec


#: Matches anything (for free-form sub-documents like fault stats).
ANY = object()

_NoneType = type(None)

_TYPE_NAMES = {
    str: "string", int: "int", float: "number", bool: "bool",
    dict: "object", list: "array", _NoneType: "null",
}


def _describe(value) -> str:
    return _TYPE_NAMES.get(type(value), type(value).__name__)


def _matches_type(value, expected) -> bool:
    if expected is float:
        # JSON "number": an int is an acceptable float.
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected is int:
        # JSON distinguishes true/1; so do we.
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, expected)


def _expected_name(spec) -> str:
    if isinstance(spec, tuple):
        return " or ".join(_TYPE_NAMES.get(t, t.__name__) for t in spec)
    return _TYPE_NAMES.get(spec, getattr(spec, "__name__", str(spec)))


def _spell(path) -> str:
    """Spell out a lazy path: a root string, or ``(parent, key)`` pairs
    whose str keys are object fields and int keys array indices."""
    parts = []
    while isinstance(path, tuple):
        path, key = path
        parts.append(f"[{key}]" if isinstance(key, int) else f".{key}")
    parts.append(path)
    return "".join(reversed(parts))


def check(value, spec, path="$") -> None:
    """Validate *value* against *spec*, raising :class:`SchemaError`.

    The error message always starts with the JSON path of the offending
    value, so a diagnostic can be surfaced as a single line.  Validation
    visits every value of a document (a checkpoint with 50,000 parked
    shard rows holds 3.6 million) and almost all of them pass, so the
    path travels as ``(parent, key)`` pairs and is spelled out only when
    a check raises.  Specs dispatch on their exact class, commonest
    first: bare types, then unions of them.
    """
    kind = type(spec)
    if kind is type:
        # A bare type has no structure to walk.
        if not _matches_type(value, spec):
            raise SchemaError(
                f"{_spell(path)}: expected {_expected_name(spec)}, got {_describe(value)}"
            )
        return
    if kind is tuple:
        structured = False
        for alternative in spec:
            if type(alternative) is not type:
                structured = True
            elif _matches_type(value, alternative):
                return
        if not structured:
            raise SchemaError(
                f"{_spell(path)}: expected {_expected_name(spec)}, got {_describe(value)}"
            )
        # A union with structured alternatives (e.g. an object spec or
        # null): accept the first alternative that validates.
        errors = []
        for alternative in spec:
            try:
                check(value, alternative, path)
                return
            except SchemaError as exc:
                errors.append(str(exc))
        raise SchemaError(
            f"{_spell(path)}: no union alternative matched ({'; '.join(errors)})"
        )
    if spec is ANY:
        return
    if kind is Opt:
        check(value, spec.spec, path)
        return
    if kind is dict:
        if not isinstance(value, dict):
            raise SchemaError(f"{_spell(path)}: expected object, got {_describe(value)}")
        for key, subspec in spec.items():
            if key not in value:
                if type(subspec) is Opt:
                    continue
                raise SchemaError(f"{_spell((path, key))}: missing required field")
            check(value[key], subspec, (path, key))
        return
    if kind is ListOf:
        if not isinstance(value, list):
            raise SchemaError(f"{_spell(path)}: expected array, got {_describe(value)}")
        item_spec = spec.item
        for index, item in enumerate(value):
            check(item, item_spec, (path, index))
        return
    if kind is TupleOf:
        if not isinstance(value, list):
            raise SchemaError(f"{_spell(path)}: expected array, got {_describe(value)}")
        if len(value) != len(spec.items):
            raise SchemaError(
                f"{_spell(path)}: expected {len(spec.items)} items, got {len(value)}"
            )
        for index, (item, subspec, exact) in enumerate(zip(value, spec.items, spec.exact)):
            if type(item) not in exact:
                check(item, subspec, (path, index))
        return
    if kind is MapOf:
        if not isinstance(value, dict):
            raise SchemaError(f"{_spell(path)}: expected object, got {_describe(value)}")
        value_spec = spec.value
        for key, item in value.items():
            if not isinstance(key, str):
                raise SchemaError(f"{_spell(path)}: non-string key {key!r}")
            if type(item) is not value_spec:
                check(item, value_spec, (path, key))
        return
    raise TypeError(f"{_spell(path)}: unsupported schema spec {spec!r}")


# ----------------------------------------------------------------------
# Per-kind artifact schemas
# ----------------------------------------------------------------------
_REGION_STATS = {
    "initial_edges": int,
    "removed_edge_edges": int,
    "added_ring_edges": int,
    "final_edges": int,
}

_CABLE_REGION = {
    "schema": int,
    "kind": str,
    "name": str,
    "agg_cos": ListOf(str),
    "edge_cos": ListOf(str),
    "agg_groups": ListOf(ListOf(str)),
    "edges": ListOf({
        "from": str,
        "to": str,
        "observations": int,
        "inferred": bool,
    }),
    "stats": _REGION_STATS,
}

_TELCO_REGION = {
    "schema": int,
    "kind": str,
    "region": str,
    "backbone_routers": ListOf(ListOf(str)),
    "agg_routers": ListOf(ListOf(str)),
    "edge_routers": ListOf(ListOf(str)),
    "edge_cos": ListOf(ListOf(str)),
    "edge_prefixes": ListOf(str),
    "agg_prefixes": ListOf(str),
    "backbone_fully_meshed": bool,
    "backbone_co_count": int,
    "router_edges": ListOf(ListOf(str)),
}

_BITFIELD_REPORT = {
    "prefix_bits": int,
    "geo_fields": ListOf(ListOf(int)),
    "cycling_fields": ListOf(ListOf(int)),
    "subscriber_fields": ListOf(ListOf(int)),
}

_MOBILE_CARRIER = {
    "schema": int,
    "kind": str,
    "carrier": str,
    "user_report": _BITFIELD_REPORT,
    "hop_reports": MapOf(_BITFIELD_REPORT),
    "region_count": int,
    "pgw_counts": MapOf(int),
    "backbone_providers": ListOf(str),
    "topology_class": str,
}

_CAMPAIGN_HEALTH = {
    "schema": int,
    "kind": str,
    "health": {
        "probes_sent": int,
        "probes_lost": int,
        "probes_refused": int,
        "probes_retried": int,
        "backoff_ms_total": float,
        "traces_run": int,
        "empty_traces": int,
        "vps_lost": ListOf(str),
        "vp_flap_retries": int,
        "targets_reassigned": int,
        "targets_skipped": int,
        "resumed": bool,
        "interrupted": bool,
        "degraded": bool,
        "shards_planned": Opt(int),
        "shards_reused": Opt(int),
        "shards_retried": Opt(int),
        "shards_poisoned": Opt(int),
        "workers_spawned": Opt(int),
        "workers_crashed": Opt(int),
        "workers_stalled": Opt(int),
        "workers_slow": Opt(int),
        "fault_stats": MapOf(ANY),
    },
}

_CORPUS_HOP = {
    "i": int,
    "addr": (str, _NoneType),
    "rdns": Opt((str, _NoneType)),
    "rtt": Opt((float, _NoneType)),
    "rttl": Opt((int, _NoneType)),
    "tries": Opt(int),
}

#: One trace of a JSON trace corpus
#: (:func:`repro.io.checkpoint.trace_to_dict`).
CORPUS_TRACE = {
    "src": str,
    "dst": str,
    "completed": Opt(bool),
    "flow_id": Opt(int),
    "vp": Opt(str),
    "hops": ListOf(_CORPUS_HOP),
}

#: One trace row (``repro.measure.traceroute.trace_to_row``), on a
#: worker's pipe or in a checkpoint record: src, dst, completed, flow
#: id, VP name and hops of (index, address, rdns, rtt, reply TTL,
#: attempts).
_WIRE_TRACE = TupleOf(
    str, str, bool, int, str,
    ListOf(TupleOf(int, (str, _NoneType), (str, _NoneType),
                   (float, _NoneType), (int, _NoneType), int)),
)

#: One parked shard result row: VP name, target, trace row, the probe
#: counter deltas and the fault-stat deltas (null without faults).
_SHARD_RESULT = TupleOf(
    str, str, _WIRE_TRACE, MapOf(float), (MapOf(int), _NoneType),
)

#: Line 1 of a checkpoint file; the records follow it.
_CAMPAIGN_CHECKPOINT = {"schema": int, "kind": str}

#: One appended checkpoint record: what changed since the last save.
CHECKPOINT_RECORD = {
    "stages": MapOf({
        "traces": ListOf(_WIRE_TRACE),
        "done": ListOf(TupleOf(str, str)),
        "complete": bool,
    }),
    "shards": MapOf(MapOf({"results": ListOf(_SHARD_RESULT)})),
    "health": MapOf(ANY),
    "injector": MapOf(ANY),
}

_QUARANTINE_REPORT = {
    "schema": int,
    "kind": str,
    "policy": str,
    "records": ListOf({
        "stage": str,
        "category": str,
        "subject": str,
        "detail": str,
        "region": (str, _NoneType),
        "dropped": bool,
        "count": int,
    }),
    "counts": MapOf(int),
}

_RUN_MANIFEST = {
    "schema": int,
    "kind": str,
    "environment": {
        "python": str,
        "implementation": str,
        "platform": str,
        "package": str,
    },
    "invocation": {
        "command": str,
        "seed": int,
        "parameters": MapOf(ANY),
    },
    "fault_plan_digest": (str, _NoneType),
    "stages": ListOf({
        "name": str,
        "duration_s": float,
        "spans": int,
        "status": str,
    }),
    "span_count": int,
    "metrics": {
        "counters": MapOf(float),
        "gauges": MapOf(float),
        "histograms": MapOf(MapOf(float)),
    },
    "artifacts": MapOf({
        "sha256": str,
        "bytes": Opt(int),
    }),
}

_JOB_SPEC = {
    "schema": int,
    "kind": str,
    "name": Opt(str),
    "pipeline": str,
    "seed": int,
    "priority": Opt(int),
    "fidelity": str,
    "allow_degraded": bool,
    "workers": int,
    "targets": Opt(int),
    "hosts": Opt(int),
    "isp": Opt(str),
    "sweep_vps": Opt(int),
    "faults": MapOf(ANY),
    "chaos": Opt({"fail_attempts": Opt(int)}),
    "corpus_format": Opt(str),
}

_JOB_RECORD = {
    "schema": int,
    "kind": str,
    "job_id": str,
    "spec_hash": str,
    "spec": _JOB_SPEC,
    "state": str,
    "fidelity": str,
    "attempts": int,
    "attempt_log": ListOf({
        "attempt": int,
        "executor": str,
        "fidelity": str,
        "outcome": str,
        "error": (str, _NoneType),
        "degraded": bool,
        "started_at": float,
        "finished_at": (float, _NoneType),
    }),
    "not_before": float,
    "lease": (
        {"owner": str, "expires_at": float, "token": Opt(int)},
        _NoneType,
    ),
    "artifacts": MapOf({
        "sha256": str,
        "bytes": Opt(int),
    }),
    "failure": ({"reason": str, "artifact": (str, _NoneType)}, _NoneType),
    "submitted_seq": int,
    "dedup_count": int,
    "events": Opt(ListOf({
        "seq": int,
        "op": str,
        "at": float,
        "detail": Opt(str),
    })),
}

_TRACE_CORPUS = {
    "schema": int,
    "kind": str,
    "traces": ListOf(CORPUS_TRACE),
}

# Cross-version topology delta served by ``GET /jobs/<a>/diff/<b>``:
# COs are responding addresses, links are adjacent responding pairs,
# both derived from the columnar corpus of each job's ``corpus``
# artifact (see :mod:`repro.service.diff`).
_TOPOLOGY_DIFF = {
    "schema": int,
    "kind": str,
    "base_job": str,
    "other_job": str,
    "cos_added": ListOf(str),
    "cos_removed": ListOf(str),
    "links_added": ListOf(ListOf(str)),
    "links_removed": ListOf(ListOf(str)),
    "counts": {
        "base_cos": int,
        "other_cos": int,
        "base_links": int,
        "other_links": int,
    },
}

# The polling view over a job's journal-event ring, cursor = max seq.
_JOB_EVENTS = {
    "schema": int,
    "kind": str,
    "job_id": str,
    "cursor": int,
    "events": ListOf({
        "seq": int,
        "op": str,
        "at": float,
        "detail": Opt(str),
    }),
}

_SERVICE_SNAPSHOT = {
    "schema": int,
    "kind": str,
    "seq": int,
    "jobs": MapOf(_JOB_RECORD),
    "rejected": ListOf({
        "spec_hash": str,
        "reason": str,
        "at": float,
    }),
}

# One bias-lab run: species estimates scored against ground truth,
# optimized-vs-random VP placement, and streaming/batch digest parity
# (see :mod:`repro.bias.report`).  CI gates on this artifact.
_SPECIES_SECTION = {
    "observed": int,
    "f1": int,
    "f2": int,
    "chao1": float,
    "unseen": float,
    "coverage": float,
    "n": int,
    "truth": int,
    "relative_error": float,
}

_BIAS_REPORT = {
    "schema": int,
    "kind": str,
    "isp": str,
    "seed": int,
    "route_model": str,
    "vp_count": int,
    "targets": int,
    "species": {
        "cos": _SPECIES_SECTION,
        "links": _SPECIES_SECTION,
    },
    "placement": {
        "k": int,
        "chosen": ListOf(str),
        "covered_edges": int,
        "total_edges": int,
        "edge_recall": float,
        "random_recall": float,
        "random_trials": int,
        "marginal_gains": ListOf(int),
    },
    "streaming": {
        "traces": int,
        "digest": str,
        "parity": bool,
        "ingest_seconds": float,
        "batch_seconds": float,
        "epoch_changes": int,
    },
}

ARTIFACT_SCHEMAS = {
    "cable-region": _CABLE_REGION,
    "telco-region": _TELCO_REGION,
    "mobile-carrier": _MOBILE_CARRIER,
    "campaign-health": _CAMPAIGN_HEALTH,
    "campaign-checkpoint": _CAMPAIGN_CHECKPOINT,
    "quarantine-report": _QUARANTINE_REPORT,
    "run-manifest": _RUN_MANIFEST,
    "job-spec": _JOB_SPEC,
    "job-record": _JOB_RECORD,
    "service-snapshot": _SERVICE_SNAPSHOT,
    "trace-corpus": _TRACE_CORPUS,
    "topology-diff": _TOPOLOGY_DIFF,
    "job-events": _JOB_EVENTS,
    "bias-report": _BIAS_REPORT,
}


# ----------------------------------------------------------------------
# Artifact entry points
# ----------------------------------------------------------------------
def artifact_kind(payload) -> str:
    """The ``kind`` tag of a parsed artifact (SchemaError when absent)."""
    if not isinstance(payload, dict):
        raise SchemaError(f"$: expected object, got {_describe(payload)}")
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise SchemaError("$.kind: missing or non-string artifact kind")
    return kind


def validate_artifact(payload, kind: "str | None" = None) -> dict:
    """Validate a parsed JSON document as one of the known artifacts.

    *kind* pins the expected artifact kind; None accepts any known one.
    Returns the payload unchanged so call sites can chain.
    """
    found = artifact_kind(payload)
    if kind is not None and found != kind:
        raise SchemaError(f"$.kind: expected {kind!r}, got {found!r}")
    schema = ARTIFACT_SCHEMAS.get(found)
    if schema is None:
        raise SchemaError(f"$.kind: unknown artifact kind {found!r}")
    version = payload.get("schema")
    if version != ARTIFACT_VERSIONS[found]:
        raise SchemaError(
            f"$.schema: unsupported {found} schema version {version!r}"
        )
    check(payload, schema)
    return payload


def parse_artifact(text: str, kind: "str | None" = None) -> dict:
    """``json.loads`` + :func:`validate_artifact`, SchemaError throughout."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$: not valid JSON: {exc}") from None
    return validate_artifact(payload, kind=kind)
