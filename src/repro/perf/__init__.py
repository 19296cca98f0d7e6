"""Performance layer: memoization, profiling, benchmark substrates.

The inference hot path re-derives the same facts millions of times —
PTR lookups and hostname regex parses, pure *per epoch* of the rDNS
store / fault injector — so this package memoizes them where
invalidation can be reasoned about in one place
(:class:`~repro.perf.cache.InferenceCache`; the bounded address memo
lives beside its helper in :mod:`repro.net.addresses`), plus the
wall-clock/RSS profiler and the synthetic-region corpus generator the
benchmark harness runs against.
"""

from repro.perf.cache import InferenceCache
from repro.perf.profile import PhaseProfiler

__all__ = [
    "InferenceCache",
    "PhaseProfiler",
]
