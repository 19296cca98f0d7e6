"""On-disk corpus formats: validated binary (``.npz``) and JSON.

JSON remains the interchange format every external tool can read — a
``trace-corpus`` artifact whose ``traces`` array reuses the checkpoint
trace schema, validated by :mod:`repro.validate.schema` like every
other artifact.  The binary format exists for the corpus scale JSON
cannot carry: the :class:`~repro.corpus.columnar.TraceCorpus` columns
written verbatim into an ``.npz`` container (no pickling), with the
string tables as UTF-8 JSON payloads and a small JSON header carrying
the schema version and expected cardinalities.

Both loaders obey the PR-2 contract: any structural defect — missing
array, wrong dtype, inconsistent lengths, non-monotonic offsets, ids
out of table range, bad header — raises
:class:`~repro.errors.SchemaError` naming the offending path, never a
bare ``KeyError``.  Writes are atomic (write-temp-rename), matching
every other artifact exporter.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import tempfile

import numpy as np

from repro.corpus.columnar import _ARRAY_FIELDS, StringTable, TraceCorpus
from repro.errors import SchemaError
from repro.io.checkpoint import trace_from_dict, traces_to_corpus_json
from repro.validate.schema import parse_artifact

CORPUS_KIND = "trace-corpus"
CORPUS_SCHEMA_VERSION = 1

#: String tables stored in the container, in header order.
_TABLE_FIELDS = ("addresses", "hostnames", "vps")


# ----------------------------------------------------------------------
# JSON interchange
# ----------------------------------------------------------------------
def corpus_to_json(corpus: TraceCorpus) -> str:
    """Serialize as the validated ``trace-corpus`` JSON artifact."""
    return traces_to_corpus_json(corpus.to_traces())


def corpus_from_json(text: str) -> TraceCorpus:
    """Parse and schema-validate a ``trace-corpus`` JSON artifact."""
    payload = parse_artifact(text, kind=CORPUS_KIND)
    return TraceCorpus.from_traces(
        [trace_from_dict(item) for item in payload["traces"]]
    )


# ----------------------------------------------------------------------
# Binary container
# ----------------------------------------------------------------------
def _encode_strings(strings: "list[str]") -> np.ndarray:
    """A string table as a UTF-8 JSON byte column (pickle-free)."""
    return np.frombuffer(
        json.dumps(strings).encode("utf-8"), dtype=np.uint8
    )


def _decode_strings(array: np.ndarray, path: str) -> "list[str]":
    try:
        decoded = json.loads(bytes(array.tobytes()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: undecodable string table: {exc}") from None
    if not isinstance(decoded, list) or any(
        not isinstance(item, str) for item in decoded
    ):
        raise SchemaError(f"{path}: expected a JSON array of strings")
    return decoded


def save_corpus(path: "str | pathlib.Path", corpus: TraceCorpus) -> pathlib.Path:
    """Write the binary corpus container atomically; returns the path."""
    path = pathlib.Path(path)
    header = {
        "schema": CORPUS_SCHEMA_VERSION,
        "kind": CORPUS_KIND,
        "traces": len(corpus),
        "hops": corpus.hop_count,
        "tables": {
            name: len(getattr(corpus, name)) for name in _TABLE_FIELDS
        },
    }
    arrays = {
        "header": np.frombuffer(
            json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
    }
    for name in _TABLE_FIELDS:
        arrays[name] = _encode_strings(getattr(corpus, name).strings)
    for name, dtype in _ARRAY_FIELDS.items():
        arrays[name] = np.ascontiguousarray(
            getattr(corpus, name), dtype=dtype
        )
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(buffer.getvalue())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        with pathlib.Path(temp_name) as leftover:
            if leftover.exists():
                leftover.unlink()
        raise
    return path


def _require(archive, name: str) -> np.ndarray:
    if name not in archive.files:
        raise SchemaError(f"$.{name}: missing required array")
    return archive[name]


def load_corpus(path: "str | pathlib.Path") -> TraceCorpus:
    """Load and structurally validate a binary corpus container.

    Every check failure is a :class:`SchemaError` naming the array (and
    never a ``KeyError``): the binary loader sits behind the same
    validation contract as the JSON loaders.
    """
    path = pathlib.Path(path)
    try:
        archive = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise SchemaError(f"$: no corpus file at {path}") from None
    except (OSError, ValueError) as exc:
        raise SchemaError(f"$: unreadable corpus container: {exc}") from None
    with archive:
        header_raw = _require(archive, "header")
        if header_raw.dtype != np.uint8:
            raise SchemaError("$.header: expected a uint8 byte column")
        try:
            header = json.loads(bytes(header_raw.tobytes()).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SchemaError(f"$.header: undecodable header: {exc}") from None
        if not isinstance(header, dict):
            raise SchemaError("$.header: expected a JSON object")
        if header.get("kind") != CORPUS_KIND:
            raise SchemaError(
                f"$.header.kind: expected {CORPUS_KIND!r}, "
                f"got {header.get('kind')!r}"
            )
        if header.get("schema") != CORPUS_SCHEMA_VERSION:
            raise SchemaError(
                "$.header.schema: unsupported trace-corpus schema "
                f"version {header.get('schema')!r}"
            )
        tables = {
            name: StringTable(_decode_strings(
                _require(archive, name), f"$.{name}"
            ))
            for name in _TABLE_FIELDS
        }
        arrays: "dict[str, np.ndarray]" = {}
        for name, dtype in _ARRAY_FIELDS.items():
            array = _require(archive, name)
            if array.dtype != dtype:
                raise SchemaError(
                    f"$.{name}: expected dtype {dtype}, got {array.dtype}"
                )
            if array.ndim != 1:
                raise SchemaError(
                    f"$.{name}: expected 1-d array, got {array.ndim}-d"
                )
            arrays[name] = array
    corpus = TraceCorpus(
        addresses=tables["addresses"],
        hostnames=tables["hostnames"],
        vps=tables["vps"],
        **arrays,
    )
    _validate_structure(corpus, header)
    return corpus


def _validate_structure(corpus: TraceCorpus, header: dict) -> None:
    """Cross-array invariants the dtype checks cannot express."""
    trace_count = len(corpus)
    hop_count = corpus.hop_count
    if header.get("traces") != trace_count:
        raise SchemaError(
            f"$.header.traces: header says {header.get('traces')!r}, "
            f"arrays carry {trace_count}"
        )
    if header.get("hops") != hop_count:
        raise SchemaError(
            f"$.header.hops: header says {header.get('hops')!r}, "
            f"arrays carry {hop_count}"
        )
    for name in ("dst_id", "completed", "flow_id", "vp_id"):
        if getattr(corpus, name).shape[0] != trace_count:
            raise SchemaError(
                f"$.{name}: length {getattr(corpus, name).shape[0]} != "
                f"trace count {trace_count}"
            )
    for name in ("addr_id", "rdns_id", "rtt", "reply_ttl", "attempts"):
        if getattr(corpus, name).shape[0] != hop_count:
            raise SchemaError(
                f"$.{name}: length {getattr(corpus, name).shape[0]} != "
                f"hop count {hop_count}"
            )
    offsets = corpus.hop_offsets
    if offsets.shape[0] != trace_count + 1:
        raise SchemaError(
            f"$.hop_offsets: expected {trace_count + 1} offsets, "
            f"got {offsets.shape[0]}"
        )
    if offsets[0] != 0 or offsets[-1] != hop_count:
        raise SchemaError(
            "$.hop_offsets: offsets must start at 0 and end at the "
            f"hop count ({hop_count})"
        )
    if trace_count and bool(np.any(np.diff(offsets) < 0)):
        raise SchemaError("$.hop_offsets: offsets must be non-decreasing")
    checks = (
        ("src_id", corpus.src_id, len(corpus.addresses), False),
        ("dst_id", corpus.dst_id, len(corpus.addresses), False),
        ("vp_id", corpus.vp_id, len(corpus.vps), False),
        ("addr_id", corpus.addr_id, len(corpus.addresses), True),
        ("rdns_id", corpus.rdns_id, len(corpus.hostnames), True),
    )
    for name, column, table_size, optional in checks:
        if column.shape[0] == 0:
            continue
        floor = -1 if optional else 0
        if int(column.min()) < floor or int(column.max()) >= table_size:
            raise SchemaError(
                f"$.{name}: id out of table range [{floor}, {table_size})"
            )
