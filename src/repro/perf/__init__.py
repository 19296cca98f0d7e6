"""Performance layer: memoization, profiling, benchmark substrates.

The inference hot path re-derives the same facts millions of times —
``str(parse_ip(...))`` normalization, PTR lookups, hostname regex
parses, point-to-point peer computation.  All of those are pure (or
pure *per epoch* of the rDNS store / fault injector), so this package
centralizes their memoization where invalidation can be reasoned about
in one place, plus the wall-clock/RSS profiler and the synthetic-region
corpus generator the benchmark harness runs against.
"""

from repro.perf.cache import (
    InferenceCache,
    normalize_address,
    p2p_peer_str,
)
from repro.perf.profile import PhaseProfiler

__all__ = [
    "InferenceCache",
    "PhaseProfiler",
    "normalize_address",
    "p2p_peer_str",
]
