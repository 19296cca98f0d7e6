"""Performance layer: memoization, collector pauses, benchmark substrates.

The inference hot path re-derives the same facts millions of times —
PTR lookups and hostname regex parses, pure *per epoch* of the rDNS
store / fault injector — so this package memoizes them where
invalidation can be reasoned about in one place
(:class:`~repro.perf.cache.InferenceCache`; the bounded address memo
lives beside its helper in :mod:`repro.net.addresses`), plus the
synthetic-region corpus generator the benchmark harness runs against.
"""

from repro.perf.cache import InferenceCache

__all__ = [
    "InferenceCache",
]
