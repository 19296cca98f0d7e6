"""The quadratic DPR scan, frozen as :class:`FollowupIndex`'s oracle.

:class:`repro.infer.adjacency.FollowupIndex` answers "does some
follow-up trace show hops between this pair?" from per-trace hop-index
spans built in one pass.  This module answers the same question the
slow way, by rescanning every follow-up trace for every pair, so an
indexing bug cannot leak into the reference.

``tests/infer/test_table4_accounting.py`` and
``tests/corpus/test_properties.py`` check the index against it.
"""

from __future__ import annotations


def mpls_separated(pair, followup_traces) -> bool:
    """Whether any follow-up trace shows hops *between* the pair.

    Considers every occurrence pair in path order — the earliest
    occurrence of *first* against any later occurrence of *second* —
    so reversed or duplicate-hop DPR traces cannot mis-classify.
    Spacing is measured over ``Hop.index`` (TTL space): an unresponsive
    interior hop in ``A, *, B`` still separates the pair.
    """
    first, second = pair
    for trace in followup_traces:
        earliest = None
        for hop in trace.hops:
            if hop.address is None:
                continue
            if hop.address == first and earliest is None:
                earliest = hop.index
            elif (
                hop.address == second
                and earliest is not None
                and hop.index > earliest + 1
            ):
                return True
    return False


class ReferenceIndex:
    """:class:`FollowupIndex`'s query interface over the reference scan."""

    def __init__(self, traces=()) -> None:
        self._traces = list(traces)

    def separated(self, first: str, second: str) -> bool:
        return mpls_separated((first, second), self._traces)
