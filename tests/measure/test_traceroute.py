"""Unit tests for the traceroute engine on the toy network."""

import pytest

from repro.errors import MeasurementError
from repro.measure.traceroute import Hop, TraceResult, Tracerouter
from repro.net.router import ReplyPolicy


class TestTrace:
    @pytest.mark.parametrize("attempts", [0, -1])
    def test_attempts_below_one_refused(self, toy_network, attempts):
        with pytest.raises(MeasurementError, match=f"attempts must be at least 1, got {attempts}"):
            Tracerouter(toy_network[0], attempts=attempts)

    def test_reaches_destination(self, toy_network):
        net, routers = toy_network
        tracer = Tracerouter(net)
        result = tracer.trace(routers["src"], "10.0.0.14")
        assert result.completed
        assert result.hops[-1].address == "10.0.0.14"

    def test_hop_count(self, toy_network):
        net, routers = toy_network
        result = Tracerouter(net).trace(routers["src"], "10.0.0.14")
        assert len(result.hops) == 3  # a, b*, dst

    def test_reply_addresses_are_inbound(self, toy_network):
        net, routers = toy_network
        result = Tracerouter(net).trace(routers["src"], "10.0.0.14")
        first_hop = result.hops[0]
        assert first_hop.address == "10.0.0.2"  # a's iface toward src

    def test_rtts_monotonic(self, toy_network):
        net, routers = toy_network
        result = Tracerouter(net).trace(routers["src"], "10.0.0.14")
        rtts = [h.rtt_ms for h in result.hops]
        assert rtts == sorted(rtts)

    def test_reply_ttl_decreases(self, toy_network):
        net, routers = toy_network
        result = Tracerouter(net).trace(routers["src"], "10.0.0.14")
        ttls = [h.reply_ttl for h in result.hops]
        assert ttls == sorted(ttls, reverse=True)

    def test_nonexistent_target_in_routed_prefix(self, toy_network):
        net, routers = toy_network
        result = Tracerouter(net).trace(routers["src"], "198.18.5.200")
        assert not result.completed
        assert result.hops[-1].address is None  # dst never echoes

    def test_unroutable_target(self, toy_network):
        net, routers = toy_network
        result = Tracerouter(net).trace(routers["src"], "203.0.113.1")
        assert result.hops == [] and not result.completed

    def test_silent_router_shows_star(self, toy_network):
        net, routers = toy_network
        routers["a"].policy = ReplyPolicy(respond_prob=0.0)
        result = Tracerouter(net).trace(routers["src"], "10.0.0.14")
        assert result.hops[0].address is None
        assert result.completed  # destination still reached

    def test_flow_determinism(self, toy_network):
        net, routers = toy_network
        tracer = Tracerouter(net)
        first = tracer.trace(routers["src"], "10.0.0.14", flow_id=9)
        second = tracer.trace(routers["src"], "10.0.0.14", flow_id=9)
        assert [h.address for h in first.hops] == [h.address for h in second.hops]

    def test_flows_explore_ecmp(self, toy_network):
        net, routers = toy_network
        tracer = Tracerouter(net)
        middles = set()
        for flow in range(32):
            result = tracer.trace(routers["src"], "10.0.0.14", flow_id=flow)
            middles.add(result.hops[1].address)
        assert len(middles) == 2  # both b1 and b2 observed

    def test_max_ttl_truncates(self, toy_network):
        net, routers = toy_network
        tracer = Tracerouter(net, max_ttl=1)
        result = tracer.trace(routers["src"], "10.0.0.14")
        assert len(result.hops) == 1 and not result.completed

    def test_probes_counted(self, toy_network):
        """probes_sent counts one probe per TTL per attempt;
        traces_run keeps the per-traceroute count."""
        net, routers = toy_network
        tracer = Tracerouter(net)
        traces = tracer.trace_many(routers["src"], ["10.0.0.14", "10.0.0.6"])
        assert tracer.traces_run == 2
        assert tracer.probes_sent == sum(len(t.hops) for t in traces)
        assert tracer.probes_sent > tracer.traces_run

    def test_retries_counted(self, toy_network):
        net, routers = toy_network
        tracer = Tracerouter(net, attempts=3)
        trace = tracer.trace(routers["src"], "10.0.0.14")
        # Every hop answered on the first try: no retries consumed.
        assert tracer.probes_retried == 0
        assert all(h.attempts == 1 for h in trace.hops)

    def test_rdns_attached(self, toy_network):
        net, routers = toy_network
        net.rdns.set("10.0.0.2", "a.example.net")
        result = Tracerouter(net).trace(routers["src"], "10.0.0.14")
        assert result.hops[0].rdns == "a.example.net"


class TestTraceResultHelpers:
    def _result(self, completed=True):
        hops = [
            Hop(1, "10.0.0.1"),
            Hop(2, None),
            Hop(3, "10.0.0.5"),
            Hop(4, "10.0.0.9"),
        ]
        return TraceResult("192.0.2.1", "10.0.0.9", hops, completed=completed)

    def test_responsive_addresses(self):
        assert self._result().responsive_addresses() == [
            "10.0.0.1", "10.0.0.5", "10.0.0.9",
        ]

    def test_adjacent_pairs_skip_silent_gaps(self):
        assert self._result().adjacent_pairs() == [("10.0.0.5", "10.0.0.9")]

    def test_exclude_final_echo(self):
        pairs = self._result().adjacent_pairs(exclude_final_echo=True)
        assert pairs == []

    def test_final_echo_kept_when_incomplete(self):
        pairs = self._result(completed=False).adjacent_pairs(
            exclude_final_echo=True
        )
        assert pairs == [("10.0.0.5", "10.0.0.9")]

    def test_empty_hops(self):
        result = TraceResult("a", "b", [])
        assert result.adjacent_pairs() == []
        assert result.responsive_addresses() == []
