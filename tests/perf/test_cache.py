"""InferenceCache and module-level memos: correctness under mutation
and fault-injector swaps, and agreement with the unmemoized address
functions."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import AddressError
from repro.faults import FaultInjector, FaultPlan
from repro.net.addresses import normalize_address, p2p_peer, p2p_peer_str, parse_ip
from repro.net.dns import RdnsStore
from repro.perf import InferenceCache
from repro.rdns.regexes import HostnameParser

NAME = "ae-1-ar01.aggco.co.denver.comcast.net"
OTHER_NAME = "ae-1-ar01.otherco.co.denver.comcast.net"


@pytest.fixture()
def rdns():
    store = RdnsStore()
    store.set("10.0.0.1", NAME)
    return store


@pytest.fixture()
def cache(rdns):
    return InferenceCache(rdns, HostnameParser())


class TestModuleMemos:
    def test_normalize_matches_uncached(self):
        values = ["10.0.0.1", "192.168.1.1", "2001:db8::1", "2001:DB8:0::1"]
        expected = [str(parse_ip(v)) for v in values]
        assert [normalize_address(v) for v in values] == expected
        # Second pass hits the memo; answers must not drift.
        assert [normalize_address(v) for v in values] == expected

    def test_normalize_memo_is_bounded(self):
        # More distinct addresses than the bound, as a long-running
        # service sees across many jobs' address spaces.
        bound = normalize_address.cache_info().maxsize
        for index in range(bound + 1000):
            value = f"10.{index >> 16}.{index >> 8 & 255}.{index & 255}"
            assert normalize_address(value) == value
        assert normalize_address.cache_info().currsize <= bound

    def test_p2p_peer_memoizes_failures(self):
        # A /30 network address has no peer: None both times.
        assert p2p_peer_str("10.0.0.0") is None
        assert p2p_peer_str("10.0.0.0") is None
        assert p2p_peer_str("10.0.0.1") == "10.0.0.2"

    @pytest.mark.parametrize("prefixlen", [30, 31])
    def test_p2p_peer_matches_uncached(self, prefixlen):
        # Every last octet of a /24 (the dotted-quad fast path), plus an
        # IPv6 address (the slow path), against the unmemoized peer.
        values = [f"10.1.2.{last}" for last in range(256)] + ["2001:db8::1"]
        for value in values:
            try:
                expected = str(p2p_peer(value, prefixlen))
            except AddressError:
                expected = None
            assert p2p_peer_str(value, prefixlen) == expected
            assert p2p_peer_str(value, prefixlen) == expected


class TestLookupInvalidation:
    def test_memoized_lookup_answers(self, cache):
        assert cache.lookup("10.0.0.1") == NAME
        assert cache.lookup("10.0.0.1") == NAME
        assert cache.stats.lookup_hits == 1
        assert cache.stats.lookup_misses == 1

    def test_store_mutation_invalidates(self, cache, rdns):
        assert cache.lookup("10.0.0.1") == NAME
        rdns.set("10.0.0.1", OTHER_NAME)
        assert cache.lookup("10.0.0.1") == OTHER_NAME
        assert cache.stats.invalidations == 1

    def test_record_removal_invalidates(self, cache, rdns):
        assert cache.lookup("10.0.0.1") == NAME
        rdns.remove("10.0.0.1")
        assert cache.lookup("10.0.0.1") is None

    def test_injector_swap_invalidates(self, cache, rdns):
        # Stale-rDNS injection changes what lookup() returns per
        # address; attaching (or detaching) an injector must drop the
        # memo even though the store's records never changed.
        baseline = cache.lookup("10.0.0.1")
        assert baseline == NAME
        rdns.faults = FaultInjector(FaultPlan(seed=5, stale_rdns=1.0))
        faulted = cache.lookup("10.0.0.1")
        assert faulted == rdns.lookup("10.0.0.1")
        assert cache.stats.invalidations == 1
        rdns.faults = None
        assert cache.lookup("10.0.0.1") == NAME
        assert cache.stats.invalidations == 2

    def test_parse_memo_survives_invalidation(self, cache, rdns):
        parsed = cache.parsed_lookup("10.0.0.1")
        assert parsed is not None and parsed.co_tag == "aggco.co"
        rdns.set("10.0.0.2", OTHER_NAME)  # bump epoch
        again = cache.parsed_lookup("10.0.0.1")
        assert again is parsed  # pure parse memo kept across epochs
        assert cache.stats.parse_hits >= 1


class TestDerivedAnswers:
    def test_regional_co_matches_uncached(self, cache, rdns):
        parser = HostnameParser()
        expected = parser.regional_co(rdns.lookup("10.0.0.1"), "comcast")
        assert cache.regional_co("10.0.0.1", "comcast") == expected
        assert cache.regional_co("10.0.0.1", "nobody") is None

    def test_degree_threshold_matches_statistics(self, cache):
        import statistics

        degrees = (1, 2, 2, 9)
        expected = statistics.fmean(degrees) + statistics.pstdev(degrees)
        assert cache.degree_threshold(degrees) == expected
        assert cache.degree_threshold(degrees) == expected


SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("module", ["repro.perf", "repro.perf.cache", "repro.perf.synthetic"])
def test_perf_modules_import_first(module):
    """Each perf module imports in a fresh interpreter as its first
    ``repro`` import: nothing under ``repro.net`` imports back into
    ``repro.perf``."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
