"""ICMP paris-traceroute engine.

Implements the probing behaviour the paper's methodology depends on:

* hop-by-hop TTL probing with per-flow path pinning (paris-traceroute
  keeps the flow identifier constant so ECMP does not corrupt a single
  trace, while different flow ids may take different equal-cost paths);
* reply-address selection by the responding router's policy (usually
  the inbound interface — the property Appendix B.1's /30-peer
  heuristic relies on);
* MPLS visibility filtering (tunnels hide interior hops unless the
  destination triggers Direct Path Revelation);
* silent hops ("*") for routers whose policy refuses the probe;
* RTT computation from path geometry plus a small deterministic jitter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.net.addresses import parse_ip
from repro.net.network import Network
from repro.net.router import Router, _extend_hash, _hash_prefix, _stable_hash
from repro.perf.cache import normalize_address


class Hop(NamedTuple):
    """One traceroute hop: address (None for ``*``), rdns, rtt, reply TTL.

    ``attempts`` records how many probes this TTL consumed before a
    reply arrived (or before the prober gave up, for ``*`` hops).  An
    immutable named tuple: campaigns build one per probed TTL, so
    construction cost and size matter.
    """

    index: int
    address: Optional[str]
    rdns: Optional[str] = None
    rtt_ms: Optional[float] = None
    reply_ttl: Optional[int] = None
    attempts: int = 1

    @property
    def responded(self) -> bool:
        return self.address is not None


@dataclass
class TraceResult:
    """A complete traceroute: source, destination, and the hop list."""

    src_address: str
    dst_address: str
    hops: "list[Hop]"
    #: True when the destination itself answered the final probe.
    completed: bool = False
    flow_id: int = 0
    #: Free-form annotation set by campaign drivers (e.g. VP name).
    vp_name: str = ""

    def responsive_addresses(self) -> "list[str]":
        """The addresses that replied, in path order."""
        return [hop.address for hop in self.hops if hop.address is not None]

    def adjacent_pairs(self, exclude_final_echo: bool = False) -> "list[tuple[str, str]]":
        """Pairs of addresses at immediately consecutive responding hops.

        Pairs across a silent ("*") hop are *not* immediate and are
        excluded, exactly as the paper's adjacency extraction does.

        ``exclude_final_echo`` drops the pair ending at the destination
        of a completed trace: an echo reply carries the *probed*
        address, not an inbound-interface address, so heuristics built
        on the inbound-interface assumption (the point-to-point peer
        vote of Appendix B.1) must not consume it.
        """
        pairs = []
        last_index = self.hops[-1].index if self.hops else -1
        for first, second in zip(self.hops, self.hops[1:]):
            if first.address is None or second.address is None:
                continue
            if (
                exclude_final_echo
                and self.completed
                and second.index == last_index
            ):
                continue
            pairs.append((first.address, second.address))
        return pairs


class Tracerouter:
    """Traceroute campaigns against a :class:`Network`.

    ``attempts`` gives scamper-style per-hop retries: each TTL is
    probed up to *attempts* times, with a deterministic exponential
    backoff (accounted in ``backoff_ms_total``) between tries.  The
    first attempt of every hop uses the same probe identity as a
    retry-free prober, so ``attempts=1`` (the default) is
    byte-identical to the historical engine.  The counters distinguish
    probes *lost* in flight (fault injection — transient) from probes
    *refused* by the responding router's policy.
    """

    def __init__(
        self,
        network: Network,
        max_ttl: int = 32,
        jitter_ms: float = 0.05,
        attempts: int = 1,
        backoff_ms: float = 0.3,
        pace_ms: float = 0.0,
    ) -> None:
        self.network = network
        self.max_ttl = max_ttl
        self.jitter_ms = jitter_ms
        self.attempts = max(1, attempts)
        self.backoff_ms = backoff_ms
        #: Real (wall-clock) inter-trace pacing, scamper-style.  Zero
        #: by default: the simulation itself is CPU-bound and instant.
        #: Set >0 to model the latency-bound regime real campaigns run
        #: in — every probe waits on an RTT and on ICMP rate limits —
        #: which is the regime where sharding measurement across worker
        #: processes pays off.  Pacing never touches the trace bytes.
        self.pace_ms = pace_ms
        #: Actual probes sent: one per TTL per attempt.
        self.probes_sent = 0
        #: Traceroutes run (the historical meaning of ``probes_sent``).
        self.traces_run = 0
        #: Probes dropped in flight by fault injection.
        self.probes_lost = 0
        #: Probes the responding router declined to answer.
        self.probes_refused = 0
        #: Probes beyond the first attempt of their TTL.
        self.probes_retried = 0
        #: Simulated time spent waiting between retries.
        self.backoff_ms_total = 0.0
        #: Probe source text -> parsed address, for source-filtering
        #: reply policies; a campaign has one entry per vantage point.
        self._sources: "dict[str, object]" = {}

    def counters(self) -> "dict[str, float]":
        """Snapshot of the campaign-cost counters."""
        return {
            "probes_sent": self.probes_sent,
            "traces_run": self.traces_run,
            "probes_lost": self.probes_lost,
            "probes_refused": self.probes_refused,
            "probes_retried": self.probes_retried,
            "backoff_ms_total": self.backoff_ms_total,
        }

    def publish_metrics(self, metrics, prefix: str = "tracer.") -> None:
        """Publish the cumulative counters as ``tracer.*`` gauges.

        The counters are process-cumulative, so gauges (last snapshot
        wins) are the honest representation; the campaign runner calls
        this at every health sync and the pipeline once more at exit.
        """
        for name, value in self.counters().items():
            metrics.set_gauge(f"{prefix}{name}", value)

    def _rtt(self, one_way_ms: float, probe_key: object, head=None) -> float:
        """Round-trip time with deterministic per-probe jitter.

        The jitter hashes ``"rtt|<probe_key>"``.  For a first-attempt
        key ``(src, dst, flow, ttl)`` the caller may pass *head*, a hash
        state that has absorbed ``"rtt|(src, dst, flow, "``; only
        ``"ttl)"`` is hashed here.
        """
        if head is not None:
            draw = _extend_hash(head, f"{probe_key[-1]})")
        else:
            draw = _stable_hash("rtt", probe_key)
        jitter = (draw % 1000) / 1000.0 * self.jitter_ms
        return 2.0 * one_way_ms + 0.1 + jitter

    def trace(
        self,
        src: Router,
        dst_address: str,
        flow_id: int = 0,
        src_address: "str | None" = None,
    ) -> TraceResult:
        """Run one traceroute from *src* toward *dst_address*.

        Work is done at the coarsest level where it is fixed: link and
        address tables once per topology (``Network``), the hop plan and
        hash prefixes once per trace, and per probe only the fault
        hooks, the reply-policy decision, the RTT hash suffix and the
        rDNS dig.
        """
        if self.pace_ms > 0.0:
            time.sleep(self.pace_ms / 1000.0)
        self.traces_run += 1
        network = self.network
        faults = network.faults
        source_addr = src_address or (
            src.interfaces[0].text if src.interfaces else "0.0.0.0"
        )
        dst_text = normalize_address(dst_address)
        result = TraceResult(source_addr, dst_text, hops=[], flow_id=flow_id)
        dst_router, dst_exists = network.route_target(dst_address)
        if dst_router is None:
            return result

        # Paris-traceroute semantics: the flow key (source, flow id) is
        # constant for the whole trace, so ECMP cannot corrupt it, while
        # different VPs and flow ids explore different equal-cost paths.
        path = network.forwarding_path(
            src, dst_router, flow_id=f"{source_addr}|{flow_id}"
        )
        down = (
            faults.down_tunnels(
                network.mpls.tunnels, (source_addr, dst_text, flow_id)
            )
            if faults is not None
            else frozenset()
        )
        plan = network.hop_plan(path, dst_router, down=down)
        if len(plan) > self.max_ttl:
            del plan[self.max_ttl:]
        probe_source = self._sources.get(source_addr)
        if probe_source is None:
            probe_source = self._sources[source_addr] = parse_ip(source_addr)
        # Every first-attempt RTT key is (source, dst, flow, ttl): absorb
        # the text of "rtt|(source, dst, flow, " once, add "ttl)" per hop.
        rtt_head = _hash_prefix(
            "rtt|" + str((source_addr, dst_address, flow_id))[:-1] + ", "
        )
        dig = network.rdns.dig
        hops = result.hops
        sent = lost = refused = 0
        for hop_index, (router, inbound, one_way_ms) in enumerate(plan, 1):
            is_final = router is dst_router
            base_key = (source_addr, dst_address, flow_id, hop_index)
            hop = None
            for attempt in range(self.attempts):
                # Attempt 0 keeps the historical probe identity so the
                # retry-free configuration reproduces the seed exactly.
                probe_key = base_key if attempt == 0 else (*base_key, f"a{attempt}")
                sent += 1
                if attempt:
                    self.backoff_ms_total += self.backoff_ms * (2 ** (attempt - 1))
                if faults is not None and faults.probe_lost(probe_key):
                    lost += 1
                    continue
                if is_final:
                    if not (dst_exists and router.probe_response(
                        probe_source, probe_key, echo=True, faults=faults
                    )):
                        refused += 1
                        continue
                    reply_addr = dst_text
                else:
                    if not router.probe_response(
                        probe_source, probe_key, faults=faults
                    ):
                        refused += 1
                        continue
                    reply_addr = router.reply_text(inbound, dst_address)
                hop = Hop(
                    hop_index,
                    reply_addr,
                    dig(reply_addr, fault_key=probe_key),
                    round(self._rtt(one_way_ms, probe_key, None if attempt else rtt_head), 3),
                    router.policy.initial_ttl - (hop_index - 1),
                    attempt + 1,
                )
                break
            if hop is None:
                hop = Hop(hop_index, None, attempts=self.attempts)
            elif is_final:
                result.completed = True
            hops.append(hop)
        self.probes_sent += sent
        self.probes_retried += sent - len(plan)
        self.probes_lost += lost
        self.probes_refused += refused
        return result

    def trace_many(
        self,
        src: Router,
        dst_addresses,
        flow_id: int = 0,
        src_address: "str | None" = None,
    ) -> "list[TraceResult]":
        """Traceroute to every destination in *dst_addresses*."""
        return [
            self.trace(src, dst, flow_id=flow_id, src_address=src_address)
            for dst in dst_addresses
        ]
