"""The columnar corpus representation and its vectorized primitives.

Layout
------

A :class:`TraceCorpus` holds two families of parallel numpy arrays plus
three interned string tables:

* **trace columns** (length ``T``): ``src_id``/``dst_id`` (address
  table ids), ``completed``, ``flow_id``, ``vp_id`` (vantage-point
  table id), and ``hop_offsets`` (length ``T + 1``, CSR row pointers
  into the hop columns — trace *t*'s hops are rows
  ``hop_offsets[t]:hop_offsets[t + 1]``);
* **hop columns** (length ``H``): ``hop_idx`` (the probe TTL,
  :attr:`~repro.measure.traceroute.Hop.index`), ``addr_id`` (``-1``
  for a silent ``*`` hop), ``rdns_id`` (``-1`` when no PTR was dug),
  ``rtt`` (``NaN`` when absent), ``reply_ttl`` (:data:`NO_REPLY_TTL`
  sentinel when absent), and ``attempts``.

The round-trip contract: ``TraceCorpus.from_traces(ts).to_traces()``
reproduces *ts* exactly (every ``Hop`` field, every ``TraceResult``
field), so the object-graph pipeline remains the digest-parity oracle
for every vectorized path built on these arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.measure.traceroute import Hop, TraceResult

#: Sentinel for an absent ``Hop.reply_ttl`` (any real value fits int32).
NO_REPLY_TTL = int(np.iinfo(np.int32).min)

#: Sentinel id for "no string" in the address / hostname columns.
NO_ID = -1


class StringTable:
    """An interning table: string ↔ dense int id, insertion-ordered."""

    __slots__ = ("strings", "_ids")

    def __init__(self, strings: "list[str] | None" = None) -> None:
        self.strings: "list[str]" = list(strings) if strings else []
        self._ids: "dict[str, int]" = {
            string: index for index, string in enumerate(self.strings)
        }

    def __len__(self) -> int:
        return len(self.strings)

    def __getitem__(self, index: int) -> str:
        return self.strings[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StringTable) and self.strings == other.strings

    def intern(self, string: str) -> int:
        """The id of *string*, assigning the next dense id if new."""
        found = self._ids.get(string)
        if found is None:
            found = len(self.strings)
            self._ids[string] = found
            self.strings.append(string)
        return found

    def intern_optional(self, string: "str | None") -> int:
        """Like :meth:`intern`, but maps None to :data:`NO_ID`."""
        if string is None:
            return NO_ID
        return self.intern(string)

    def get(self, string: str) -> "int | None":
        """The id of *string* if already interned."""
        return self._ids.get(string)


@dataclass
class TraceCorpus:
    """A traceroute corpus as parallel columns over interned tables."""

    addresses: StringTable = field(default_factory=StringTable)
    hostnames: StringTable = field(default_factory=StringTable)
    vps: StringTable = field(default_factory=StringTable)
    # -- trace columns (length T; hop_offsets is T + 1) -------------------
    src_id: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32))
    dst_id: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32))
    completed: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.bool_))
    flow_id: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    vp_id: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32))
    hop_offsets: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.int64))
    # -- hop columns (length H) -------------------------------------------
    hop_idx: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32))
    addr_id: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32))
    rdns_id: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32))
    rtt: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64))
    reply_ttl: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32))
    attempts: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32))
    #: Lazy per-corpus derived-array cache (sorted pair keys, expanded
    #: trace ids).  Columns are never mutated after construction, so the
    #: cache is safe.
    _derived: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.src_id.shape[0])

    @property
    def hop_count(self) -> int:
        return int(self.hop_idx.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceCorpus):
            return NotImplemented
        return (
            self.addresses == other.addresses
            and self.hostnames == other.hostnames
            and self.vps == other.vps
            and all(
                np.array_equal(getattr(self, name), getattr(other, name),
                               equal_nan=(name == "rtt"))
                for name in _ARRAY_FIELDS
            )
        )

    # ------------------------------------------------------------------
    # Derived columns
    # ------------------------------------------------------------------
    def hop_trace_ids(self) -> np.ndarray:
        """Trace index of every hop row (derived from the CSR offsets)."""
        cached = self._derived.get("hop_trace_ids")
        if cached is None:
            counts = np.diff(self.hop_offsets)
            cached = np.repeat(np.arange(len(self), dtype=np.int64), counts)
            self._derived["hop_trace_ids"] = cached
        return cached

    def last_hop_rows(self) -> np.ndarray:
        """Hop-row index of each trace's final hop.

        For an *empty* trace the entry is ``offset - 1``, which aliases
        the previous trace's final row (or -1 at the corpus start) —
        callers must mask by ``np.diff(hop_offsets) > 0`` first.
        """
        return self.hop_offsets[1:] - 1

    # ------------------------------------------------------------------
    # Object-graph round trip (the parity oracle)
    # ------------------------------------------------------------------
    @classmethod
    def from_traces(cls, traces: "list[TraceResult]") -> "TraceCorpus":
        """Lift an object-graph corpus into columns (lossless)."""
        builder = CorpusBuilder()
        for trace in traces:
            builder.add_trace(trace)
        return builder.build()

    def to_traces(self) -> "list[TraceResult]":
        """Materialize the object-graph corpus back (lossless)."""
        addresses = self.addresses.strings
        hostnames = self.hostnames.strings
        vps = self.vps.strings
        traces: "list[TraceResult]" = []
        offsets = self.hop_offsets
        for t in range(len(self)):
            hops = []
            for row in range(int(offsets[t]), int(offsets[t + 1])):
                addr = self.addr_id[row]
                rdns = self.rdns_id[row]
                rtt = self.rtt[row]
                reply_ttl = self.reply_ttl[row]
                hops.append(Hop(
                    index=int(self.hop_idx[row]),
                    address=addresses[addr] if addr >= 0 else None,
                    rdns=hostnames[rdns] if rdns >= 0 else None,
                    rtt_ms=float(rtt) if not np.isnan(rtt) else None,
                    reply_ttl=(
                        int(reply_ttl) if reply_ttl != NO_REPLY_TTL else None
                    ),
                    attempts=int(self.attempts[row]),
                ))
            traces.append(TraceResult(
                src_address=addresses[self.src_id[t]],
                dst_address=addresses[self.dst_id[t]],
                hops=hops,
                completed=bool(self.completed[t]),
                flow_id=int(self.flow_id[t]),
                vp_name=vps[self.vp_id[t]],
            ))
        return traces


#: Array fields of :class:`TraceCorpus`, with their expected dtypes —
#: shared by equality, the binary writer, and the validated loader.
_ARRAY_FIELDS: "dict[str, np.dtype]" = {
    "src_id": np.dtype(np.int32),
    "dst_id": np.dtype(np.int32),
    "completed": np.dtype(np.bool_),
    "flow_id": np.dtype(np.int64),
    "vp_id": np.dtype(np.int32),
    "hop_offsets": np.dtype(np.int64),
    "hop_idx": np.dtype(np.int32),
    "addr_id": np.dtype(np.int32),
    "rdns_id": np.dtype(np.int32),
    "rtt": np.dtype(np.float64),
    "reply_ttl": np.dtype(np.int32),
    "attempts": np.dtype(np.int32),
}


class CorpusBuilder:
    """Streaming corpus assembly: append traces, materialize once.

    This is the rewritten trace-accumulation hot path: generators and
    campaign runners append into plain Python lists (amortized O(1),
    no ``Hop``/``TraceResult`` objects required via :meth:`add_path`)
    and :meth:`build` converts to numpy in one shot.
    """

    def __init__(self) -> None:
        self.addresses = StringTable()
        self.hostnames = StringTable()
        self.vps = StringTable()
        self._src: "list[int]" = []
        self._dst: "list[int]" = []
        self._completed: "list[bool]" = []
        self._flow: "list[int]" = []
        self._vp: "list[int]" = []
        self._offsets: "list[int]" = [0]
        self._hop_idx: "list[int]" = []
        self._addr: "list[int]" = []
        self._rdns: "list[int]" = []
        self._rtt: "list[float]" = []
        self._reply_ttl: "list[int]" = []
        self._attempts: "list[int]" = []

    def __len__(self) -> int:
        return len(self._src)

    # ------------------------------------------------------------------
    def add_trace(self, trace: TraceResult) -> None:
        """Append one object-graph trace."""
        self._src.append(self.addresses.intern(trace.src_address))
        self._dst.append(self.addresses.intern(trace.dst_address))
        self._completed.append(trace.completed)
        self._flow.append(trace.flow_id)
        self._vp.append(self.vps.intern(trace.vp_name))
        for hop in trace.hops:
            self._hop_idx.append(hop.index)
            self._addr.append(self.addresses.intern_optional(hop.address))
            self._rdns.append(self.hostnames.intern_optional(hop.rdns))
            self._rtt.append(hop.rtt_ms if hop.rtt_ms is not None else np.nan)
            self._reply_ttl.append(
                hop.reply_ttl if hop.reply_ttl is not None else NO_REPLY_TTL
            )
            self._attempts.append(hop.attempts)
        self._offsets.append(len(self._hop_idx))

    def add_path(self, src_address: str, dst_address: str,
                 path: "list[str]", completed: bool = False,
                 flow_id: int = 0, vp_name: str = "") -> None:
        """Append a fully-responsive address path without building objects.

        Matches ``TraceResult(src, dst, [Hop(i + 1, addr) ...])`` — the
        shape every synthetic generator and wire decoder produces —
        at a fraction of the allocation cost.
        """
        self._src.append(self.addresses.intern(src_address))
        self._dst.append(self.addresses.intern(dst_address))
        self._completed.append(completed)
        self._flow.append(flow_id)
        self._vp.append(self.vps.intern(vp_name))
        intern = self.addresses.intern
        for index, address in enumerate(path):
            self._hop_idx.append(index + 1)
            self._addr.append(intern(address))
            self._rdns.append(NO_ID)
            self._rtt.append(np.nan)
            self._reply_ttl.append(NO_REPLY_TTL)
            self._attempts.append(1)
        self._offsets.append(len(self._hop_idx))

    # ------------------------------------------------------------------
    def build(self) -> TraceCorpus:
        """Materialize the accumulated columns as a :class:`TraceCorpus`."""
        return TraceCorpus(
            addresses=self.addresses,
            hostnames=self.hostnames,
            vps=self.vps,
            src_id=np.asarray(self._src, dtype=np.int32),
            dst_id=np.asarray(self._dst, dtype=np.int32),
            completed=np.asarray(self._completed, dtype=np.bool_),
            flow_id=np.asarray(self._flow, dtype=np.int64),
            vp_id=np.asarray(self._vp, dtype=np.int32),
            hop_offsets=np.asarray(self._offsets, dtype=np.int64),
            hop_idx=np.asarray(self._hop_idx, dtype=np.int32),
            addr_id=np.asarray(self._addr, dtype=np.int32),
            rdns_id=np.asarray(self._rdns, dtype=np.int32),
            rtt=np.asarray(self._rtt, dtype=np.float64),
            reply_ttl=np.asarray(self._reply_ttl, dtype=np.int32),
            attempts=np.asarray(self._attempts, dtype=np.int32),
        )


# ----------------------------------------------------------------------
# Vectorized primitives
# ----------------------------------------------------------------------
def _pair_sort(corpus: TraceCorpus) -> "tuple[np.ndarray, np.ndarray]":
    """Adjacent responding pairs of *corpus*, sorted by composed key.

    Returns ``(rows, keys)`` sorted by ``key`` with rows ascending
    within each key group: ``rows[i]`` indexes the pair's *first* hop
    row, ``keys[i] = first_id * len(addresses) + second_id``.  Computed
    once per corpus — both ``exclude_final_echo`` variants of
    :func:`adjacent_pair_counts` derive from this single sort, since
    the echo exclusion only filters rows and filtering preserves both
    the grouping and the in-group row order.
    """
    cached = corpus._derived.get("pair_sort")
    if cached is not None:
        return cached
    empty = np.empty(0, dtype=np.int64)
    if corpus.hop_count < 2:
        cached = (empty, empty)
    else:
        addr = corpus.addr_id
        trace_ids = corpus.hop_trace_ids()
        first = addr[:-1]
        second = addr[1:]
        mask = (
            (trace_ids[:-1] == trace_ids[1:]) & (first >= 0) & (second >= 0)
        )
        rows = np.flatnonzero(mask).astype(np.int64)
        if rows.shape[0] == 0:
            cached = (empty, empty)
        else:
            table_size = np.int64(len(corpus.addresses))
            keys = first[rows].astype(np.int64) * table_size + second[rows]
            order = np.argsort(keys, kind="stable")
            cached = (rows[order], keys[order])
    corpus._derived["pair_sort"] = cached
    return cached


def adjacent_pair_counts(
    corpus: TraceCorpus, exclude_final_echo: bool = False
) -> "list[tuple[int, int, int]]":
    """Unique adjacent responding address-id pairs with occurrence counts.

    Vectorized equivalent of summing
    :meth:`TraceResult.adjacent_pairs` over the whole corpus: a pair is
    two *immediately consecutive* hop rows of the same trace where both
    hops responded (a silent ``*`` row between two addresses breaks
    adjacency, exactly as the object path excludes it).

    ``exclude_final_echo`` drops pairs ending at the final hop of a
    completed trace — the echo-reply exclusion the B.1 point-to-point
    vote requires.

    Returns ``(first_id, second_id, count)`` tuples **in first-
    occurrence order** over the corpus, which is exactly the insertion
    order of the object path's ``Counter`` — so every downstream dict
    and graph built from these pairs is ordered identically to the
    oracle's, not merely equal as a multiset.
    """
    rows, keys = _pair_sort(corpus)
    if rows.shape[0] == 0:
        return []
    if exclude_final_echo:
        # The second hop sits on the trace's last row and the trace
        # completed: that reply carries the probed address, not an
        # inbound interface.
        is_last = np.zeros(corpus.hop_count, dtype=np.bool_)
        last_rows = corpus.last_hop_rows()
        # Restrict to non-empty traces: an empty trace's "last row"
        # (offset - 1) aliases the previous trace's final hop, and the
        # duplicate fancy-index assignment would clobber its flag.
        nonempty = np.diff(corpus.hop_offsets) > 0
        is_last[last_rows[nonempty]] = corpus.completed[nonempty]
        keep = ~is_last[rows + 1]
        rows = rows[keep]
        keys = keys[keep]
        if rows.shape[0] == 0:
            return []
    starts = np.flatnonzero(
        np.concatenate(([True], keys[1:] != keys[:-1]))
    )
    counts = np.diff(np.append(starts, keys.shape[0]))
    # Stable key sort kept rows ascending within each group, so the
    # group's first element is its earliest corpus occurrence.
    order = np.argsort(rows[starts], kind="stable")
    unique = keys[starts]
    table_size = np.int64(len(corpus.addresses))
    firsts = unique // table_size
    seconds = unique % table_size
    return [
        (int(firsts[k]), int(seconds[k]), int(counts[k]))
        for k in order
    ]


def responding_address_ids(corpus: TraceCorpus) -> np.ndarray:
    """Sorted unique address ids that responded at some hop.

    Sort-free: a bincount over the (dense, bounded) intern-id space
    replaces ``np.unique``'s full sort of the hop column.
    """
    addr = corpus.addr_id
    responding = addr[addr >= 0]
    if responding.shape[0] == 0:
        return np.empty(0, dtype=addr.dtype)
    counts = np.bincount(responding, minlength=len(corpus.addresses))
    return np.flatnonzero(counts).astype(addr.dtype)


def hop_span_groups(
    corpus: TraceCorpus,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Per (address, trace) hop-index spans over responding hops.

    Returns ``(addr_ids, trace_ids, earliest_idx, latest_idx)`` — one
    entry per distinct (responding address, trace) combination, the
    grouped min/max of :attr:`TraceCorpus.hop_idx`.  This is the
    vectorized construction of the DPR follow-up index: spacing is
    measured in hop-index (TTL) space, so silent interior hops count
    toward separation.
    """
    empty = np.empty(0, dtype=np.int64)
    if corpus.hop_count == 0:
        return empty, empty, empty, empty
    responding = corpus.addr_id >= 0
    if not responding.any():
        return empty, empty, empty, empty
    addr = corpus.addr_id[responding].astype(np.int64)
    trace = corpus.hop_trace_ids()[responding]
    idx = corpus.hop_idx[responding].astype(np.int64)
    keys = addr * np.int64(max(1, len(corpus))) + trace
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_idx = idx[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    earliest = np.minimum.reduceat(sorted_idx, starts)
    latest = np.maximum.reduceat(sorted_idx, starts)
    group_addr = addr[order][starts]
    group_trace = trace[order][starts]
    return group_addr, group_trace, earliest, latest
