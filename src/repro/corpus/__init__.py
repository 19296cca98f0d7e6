"""Columnar trace corpus: structured arrays for corpus-scale inference.

The paper's pipeline is corpus-scale by nature — millions of
traceroutes lifted into CO graphs — but every optimization so far
(memos, ``FollowupIndex``, ``InferenceCache``, the supervised worker
pool) worked *around* per-:class:`~repro.measure.traceroute.TraceResult`
Python object graphs.  This package is the representation those
optimizations were waiting for:

* :class:`~repro.corpus.columnar.TraceCorpus` — parallel numpy columns
  (``trace``-level src/dst/flow/vp plus CSR hop offsets; ``hop``-level
  ``hop_idx``/``addr_id``/``rtt``/``reply_ttl``/``attempts``) over
  interned address, hostname, and vantage-point string tables;
* :class:`~repro.corpus.columnar.CorpusBuilder` — the streaming
  ingestion side: append traces (or bare address paths) one at a time
  and materialize the arrays once;
* a lossless round-trip to and from ``list[TraceResult]`` — the object
  graph stays the digest-parity oracle for every vectorized path;
* :mod:`repro.corpus.binio` — a binary on-disk format (``.npz``)
  alongside the validated JSON interchange, both loaded through the
  PR-2 schema layer (:class:`~repro.errors.SchemaError`, never
  ``KeyError``).
"""

from repro.corpus.binio import (
    CORPUS_KIND,
    CORPUS_SCHEMA_VERSION,
    corpus_from_json,
    corpus_to_json,
    load_corpus,
    save_corpus,
)
from repro.corpus.columnar import (
    NO_REPLY_TTL,
    CorpusBuilder,
    StringTable,
    TraceCorpus,
    adjacent_pair_counts,
)

__all__ = [
    "CORPUS_KIND",
    "CORPUS_SCHEMA_VERSION",
    "CorpusBuilder",
    "NO_REPLY_TTL",
    "StringTable",
    "TraceCorpus",
    "adjacent_pair_counts",
    "corpus_from_json",
    "corpus_to_json",
    "load_corpus",
    "save_corpus",
]
