"""Hierarchical spans: where a run spent its time, as a tree.

A :class:`Tracer` records one run's execution as a tree of
:class:`Span` records — every campaign stage, every inference phase —
with monotonic wall-clock timings and structured attributes.  Span
identifiers are *seeded-deterministic*: they derive from the tracer
seed, the span's creation index, its name, and its parent, never from
wall-clock time or process state.  Two runs that execute the same
stages in the same order therefore produce structurally identical span
trees (same ids, same parents, same attributes), which is what makes
two equal-seed runs diffable span-for-span.

Spans are created from the orchestrating thread only.  Supervised
worker processes never open spans; the supervisor records its shard
spans in shard-id order once the pool completes.  That is a design
rule, not an accident: it keeps the tree identical regardless of
scheduling, and it keeps the tracer free of locks.

The ``--profile`` report (:func:`phase_report`) is read off this
tree: its per-phase totals are :meth:`Tracer.phase_totals`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field


def _span_id(seed: int, index: int, name: str, parent_id: "str | None") -> str:
    """A 16-hex-digit id, a pure function of (seed, index, name, parent)."""
    key = f"{seed}:{index}:{name}:{parent_id or ''}"
    return hashlib.blake2b(key.encode(), digest_size=8).hexdigest()


@dataclass
class Span:
    """One timed operation: name, position in the tree, and attributes."""

    name: str
    span_id: str
    parent_id: "str | None"
    depth: int
    index: int
    attributes: "dict[str, object]" = field(default_factory=dict)
    #: Start time relative to the tracer's origin (informational only;
    #: excluded from the structural view).
    start_offset_s: float = 0.0
    duration_s: float = 0.0
    status: str = "ok"

    def structural_dict(self) -> "dict[str, object]":
        """The timing-free fields — identical across equivalent runs."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "index": self.index,
            "attributes": dict(self.attributes),
            "status": self.status,
        }

    def as_dict(self) -> "dict[str, object]":
        payload = self.structural_dict()
        payload["start_offset_s"] = round(self.start_offset_s, 6)
        payload["duration_s"] = round(self.duration_s, 6)
        return payload


class Tracer:
    """Records spans for one run; the context-manager entry point.

    Usage::

        tracer = Tracer(seed=0)
        with tracer.span("collect", jobs=120) as span:
            ...
            span.attributes["traces"] = 118

    Spans may nest arbitrarily; repeated names accumulate in
    :meth:`phase_totals`.  An exception escaping a span marks it (and
    leaves it in the tree) with ``status="error"`` before propagating.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        #: Every span ever opened, in creation order.
        self.spans: "list[Span]" = []
        self._stack: "list[Span]" = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attributes: object):
        parent = self._stack[-1] if self._stack else None
        parent_id = parent.span_id if parent is not None else None
        record = Span(
            name=name,
            span_id=_span_id(self.seed, len(self.spans), name, parent_id),
            parent_id=parent_id,
            depth=len(self._stack),
            index=len(self.spans),
            attributes=dict(attributes),
            start_offset_s=time.perf_counter() - self._origin,
        )
        self.spans.append(record)
        self._stack.append(record)
        start = time.perf_counter()
        try:
            yield record
        except BaseException:
            record.status = "error"
            raise
        finally:
            record.duration_s = time.perf_counter() - start
            self._stack.pop()

    def current(self) -> "Span | None":
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def phase_totals(self) -> "dict[str, float]":
        """Top-level span durations summed by name, in first-seen order.

        This is the :func:`phase_report` accounting: child spans
        (campaign stages inside ``collect``) are already included in
        their parent's duration and are not double-counted.
        """
        totals: "dict[str, float]" = {}
        for span in self.spans:
            if span.depth == 0:
                totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
        return totals

    def children(self, span: Span) -> "list[Span]":
        return [s for s in self.spans if s.parent_id == span.span_id]

    def _descendant_count(self, span: Span) -> int:
        count = 0
        for child in self.children(span):
            count += 1 + self._descendant_count(child)
        return count

    def stage_summaries(self) -> "list[dict[str, object]]":
        """One row per top-level span: the manifest's ``stages`` field."""
        return [
            {
                "name": span.name,
                "duration_s": round(span.duration_s, 6),
                "spans": 1 + self._descendant_count(span),
                "status": span.status,
            }
            for span in self.spans
            if span.depth == 0
        ]

    def structural_dicts(self) -> "list[dict[str, object]]":
        """All spans, timing-free — the determinism-comparable view."""
        return [span.structural_dict() for span in self.spans]

    def as_dicts(self) -> "list[dict[str, object]]":
        return [span.as_dict() for span in self.spans]

    def to_json(self) -> str:
        """The full span tree as a standalone JSON document."""
        payload = {
            "kind": "span-trace",
            "seed": self.seed,
            "spans": self.as_dicts(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def phase_report(tracer: Tracer) -> "list[str]":
    """The ``--profile`` lines: each top-level phase's wall-clock time
    and share, then the total and this process's peak RSS.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; it is monotone
    over the process lifetime.
    """
    import resource
    import sys

    phases = tracer.phase_totals()
    total = sum(phases.values())
    lines = []
    for name, seconds in phases.items():
        share = 100.0 * seconds / total if total else 0.0
        lines.append(f"{name:<16} {seconds:8.3f}s  {share:5.1f}%")
    lines.append(f"{'total':<16} {total:8.3f}s")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak_kb /= 1024
    lines.append(f"{'peak rss':<16} {peak_kb / 1024.0:8.1f} MiB")
    return lines
