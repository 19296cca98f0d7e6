"""Cross-version topology diffs over finished jobs' trace corpora.

The paper's longitudinal motivation (§6 and the "Describing and
Simulating Internet Routes" thread in PAPERS.md) is *change*: which
central offices appeared or disappeared between two mapping campaigns,
which adjacencies did.  The service makes that a first-class read-only
query — ``GET /jobs/<a>/diff/<b>`` — computed directly from the
columnar corpus primitives rather than a full inference rerun:

* **COs** are the responding addresses of the corpus
  (:func:`repro.corpus.columnar.responding_address_ids` — in the toy
  and simulated substrates every responding interface belongs to
  exactly one CO, PR 2's B.1 invariant).
* **Links** are the adjacent responding hop pairs
  (:func:`repro.corpus.columnar.adjacent_pair_counts`), the same edge
  evidence the §5.2 adjacency stage votes over.

The result is a validated ``topology-diff`` artifact: stable sorted
lists of added/removed COs and links plus summary counts.
"""

from __future__ import annotations

import json
import pathlib

from repro.corpus.columnar import (
    TraceCorpus,
    adjacent_pair_counts,
    responding_address_ids,
)
from repro.errors import SchemaError, ServiceError
from repro.validate.schema import (
    ARTIFACT_VERSIONS,
    CORPUS_TRACE,
    ListOf,
    check,
    validate_artifact,
)


def load_job_corpus(job_dir: "str | pathlib.Path", record) -> TraceCorpus:
    """The finished job's trace corpus, whichever format it chose.

    ``corpus.npz`` loads through the schema-validated binary container;
    ``corpus.json`` is the legacy bare trace list, checked entry by
    entry against the trace-corpus trace schema and lifted through the
    JSON trace codec into a columnar corpus.  Both job kinds export a
    corpus; a job without a corpus artifact or with a corrupt one
    raises :class:`ServiceError`.
    """
    job_dir = pathlib.Path(job_dir)
    if "corpus.npz" in record.artifacts:
        from repro.corpus.binio import load_corpus

        return load_corpus(job_dir / "corpus.npz")
    if "corpus.json" in record.artifacts:
        from repro.io.checkpoint import trace_from_dict

        try:
            payload = json.loads((job_dir / "corpus.json").read_text())
            check(payload, ListOf(CORPUS_TRACE))
        except (OSError, json.JSONDecodeError, SchemaError) as exc:
            raise ServiceError(
                f"corrupt corpus artifact for job {record.job_id}: {exc}"
            ) from exc
        return TraceCorpus.from_traces(
            [trace_from_dict(entry) for entry in payload]
        )
    raise ServiceError(
        f"job {record.job_id} has no corpus artifact to diff"
    )


def iter_finished_corpora(store, after_seq: int = 0):
    """Yield ``(record, corpus)`` for done jobs with a corpus artifact.

    Jobs stream in submission order (``submitted_seq``), skipping those
    at or below *after_seq* — the cursor contract the bias lab's
    incremental ingestion uses to resume where it left off.  Jobs
    without a corpus artifact are silently skipped; a *done* job whose
    corpus is corrupt still raises, as in the diff endpoint.
    """
    records = sorted(store.jobs.values(), key=lambda r: r.submitted_seq)
    for record in records:
        if record.submitted_seq <= after_seq or record.state != "done":
            continue
        if (
            "corpus.npz" not in record.artifacts
            and "corpus.json" not in record.artifacts
        ):
            continue
        yield record, load_job_corpus(store.job_dir(record.job_id), record)


def topology_summary(
    corpus: TraceCorpus,
) -> "tuple[list[str], list[tuple[str, str]]]":
    """The corpus's (COs, links) as address strings.

    COs sort lexically; links are unique directed adjacent responding
    pairs, sorted, with the final-echo pair excluded (the probe target
    answering for itself is not an infrastructure link).
    """
    table = corpus.addresses
    cos = sorted(
        table[int(addr_id)] for addr_id in responding_address_ids(corpus)
    )
    links = sorted({
        (table[int(first)], table[int(second)])
        for first, second, _count in
        adjacent_pair_counts(corpus, exclude_final_echo=True)
    })
    return cos, links


def topology_diff(base_job: str, other_job: str, base: TraceCorpus,
                  other: TraceCorpus) -> "dict[str, object]":
    """A validated ``topology-diff`` artifact: other relative to base."""
    base_cos, base_links = topology_summary(base)
    other_cos, other_links = topology_summary(other)
    base_co_set, other_co_set = set(base_cos), set(other_cos)
    base_link_set, other_link_set = set(base_links), set(other_links)
    payload = {
        "schema": ARTIFACT_VERSIONS["topology-diff"],
        "kind": "topology-diff",
        "base_job": base_job,
        "other_job": other_job,
        "cos_added": sorted(other_co_set - base_co_set),
        "cos_removed": sorted(base_co_set - other_co_set),
        "links_added": [
            list(pair) for pair in sorted(other_link_set - base_link_set)
        ],
        "links_removed": [
            list(pair) for pair in sorted(base_link_set - other_link_set)
        ],
        "counts": {
            "base_cos": len(base_cos),
            "other_cos": len(other_cos),
            "base_links": len(base_links),
            "other_links": len(other_links),
        },
    }
    return validate_artifact(payload, kind="topology-diff")
