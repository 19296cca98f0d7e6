"""Reverse DNS (PTR) store with staleness.

The paper's cable-network methodology leans on rDNS hostnames that
embed CO identifiers, and much of its heuristic machinery exists to
cope with *stale* names — PTR records left behind when equipment moved
between COs (§5, Appendix B).  The store therefore tracks two epochs:

* ``dig`` — the live record, what an on-demand PTR query returns;
* ``snapshot`` — a Rapid7-style bulk snapshot, which may lag the live
  zone and contain additional stale entries.

The paper prioritizes dig results over the snapshot (Appendix B.1);
:meth:`RdnsStore.lookup` implements the same priority.  Ground-truth
staleness flags are kept for scoring only.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.net.addresses import IPAddress, normalize_address


class RdnsStore:
    """PTR database for the simulated internet."""

    def __init__(self) -> None:
        self._dig: dict[str, str] = {}
        self._snapshot: dict[str, str] = {}
        self._stale: set[str] = set()
        #: Active fault injector (set via ``Network.attach_faults``);
        #: None ⇒ dig never times out.
        self.faults = None
        #: Mutation counter: bumps on every record change, so memoizing
        #: layers (:class:`repro.perf.cache.InferenceCache`) know when
        #: their lookup-derived entries are stale.
        self.epoch = 0

    def __len__(self) -> int:
        return len(set(self._dig) | set(self._snapshot))

    def set(self, address: "str | IPAddress", hostname: str, snapshot: bool = True) -> None:
        """Record a live PTR entry (and, by default, mirror it in the snapshot)."""
        key = normalize_address(address)
        self.epoch += 1
        self._dig[key] = hostname
        if snapshot:
            self._snapshot[key] = hostname

    def set_stale(self, address: "str | IPAddress", hostname: str, in_dig: bool = True) -> None:
        """Record a *stale* PTR entry — a name describing the wrong CO.

        When ``in_dig`` is False the stale name only exists in the bulk
        snapshot (the zone was fixed but the snapshot predates the fix).
        """
        key = normalize_address(address)
        self.epoch += 1
        self._snapshot[key] = hostname
        if in_dig:
            self._dig[key] = hostname
        self._stale.add(key)

    def remove(self, address: "str | IPAddress") -> None:
        """Delete any record for *address* from both epochs."""
        key = normalize_address(address)
        self.epoch += 1
        self._dig.pop(key, None)
        self._snapshot.pop(key, None)
        self._stale.discard(key)

    def dig(self, address: "str | IPAddress", fault_key: object = None) -> Optional[str]:
        """A live PTR query; may time out transiently under fault injection.

        The timeout decision is keyed on ``(address, fault_key)`` alone,
        so it is call-order independent (hence checkpoint-safe).  Probe-
        path callers pass the probe identity; other callers name the
        lookup event they make.
        """
        key = normalize_address(address)
        if self.faults is not None and self.faults.rdns_timeout(key, fault_key):
            return None
        return self._dig.get(key)

    def ptr(self, text: str) -> Optional[str]:
        """The live record for canonical address *text*.

        What a fault-free :meth:`dig` returns, without normalising the
        address: probe engines read it once per reply address and
        rDNS :attr:`epoch`.
        """
        return self._dig.get(text)

    def snapshot_lookup(self, address: "str | IPAddress") -> Optional[str]:
        """A lookup against the bulk snapshot."""
        return self._snapshot.get(normalize_address(address))

    def lookup(self, address: "str | IPAddress") -> Optional[str]:
        """Combined lookup, preferring the live record (App. B.1).

        Under fault injection with ``stale_rdns`` active, some
        addresses consistently return a donor hostname from elsewhere
        in the snapshot — synthetic stale records for exercising the
        inference-side guardrails.
        """
        key = normalize_address(address)
        name = self._dig.get(key) or self._snapshot.get(key)
        if self.faults is not None and name is not None:
            name = self.faults.stale_hostname(key, name, self)
        return name

    def snapshot_items(self) -> Iterator["tuple[str, str]"]:
        """Iterate the bulk snapshot, Rapid7-dataset style."""
        return iter(sorted(self._snapshot.items()))

    def addresses_matching(self, pattern) -> "list[str]":
        """All snapshot addresses whose hostname matches a compiled regex."""
        return [addr for addr, name in self.snapshot_items() if pattern.search(name)]

    def is_stale(self, address: "str | IPAddress") -> bool:
        """Ground truth: whether the record is stale (scoring only)."""
        return normalize_address(address) in self._stale

    @property
    def stale_count(self) -> int:
        """Ground truth: number of stale records (scoring only)."""
        return len(self._stale)
