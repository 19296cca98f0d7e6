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

from repro.errors import MeasurementError
from repro.net.addresses import normalize_address, parse_ip
from repro.net.network import Network
from repro.net.router import Interface, ReplyPolicy, Router, _extend_hash, _hash_prefix, _stable_hash

#: ``Hop`` construction without the named tuple's Python-level
#: ``__new__``, for the tracer's per-hop loop.
_new_tuple = tuple.__new__


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


class PlanStep(NamedTuple):
    """One visible router of a cached hop plan, with its reply facts.

    ``fixed`` means ``policy`` answers every probe from the plan's
    source (echo filters included at the destination) with a reply
    known in advance: ``reply`` and its live PTR ``name`` for an
    inbound-interface reply, or, at the destination, the probed address
    the tracer fills in per trace.  ``rtt_base`` is ``2·one_way_ms +
    0.1`` and ``rtt_suffix`` the RTT key's ``"<ttl>)"`` bytes.
    """

    router: Router
    inbound: Interface
    one_way_ms: float
    policy: ReplyPolicy
    fixed: bool
    reply: Optional[str]
    name: Optional[str]
    rtt_base: float
    reply_ttl: int
    is_final: bool
    rtt_suffix: bytes


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


def trace_to_row(trace: TraceResult):
    """Flatten one traceroute to ``(src, dst, completed, flow_id, vp_name,
    [hop fields, ...])``: the row supervised workers send down their pipe
    and campaign checkpoints store, about 2x cheaper than a dict."""
    return (
        trace.src_address, trace.dst_address, trace.completed,
        trace.flow_id, trace.vp_name,
        [(h.index, h.address, h.rdns, h.rtt_ms, h.reply_ttl, h.attempts)
         for h in trace.hops],
    )


def trace_from_row(row) -> TraceResult:
    """Rebuild a traceroute from a row, tuples or (after JSON) lists.

    Rows come from a worker's pipe or a schema-checked checkpoint, so
    each six-field hop skips the named tuple's Python-level ``__new__``.
    """
    src, dst, completed, flow_id, vp_name, hops = row
    return TraceResult(
        src_address=src, dst_address=dst,
        hops=[_new_tuple(Hop, hop) for hop in hops],
        completed=completed, flow_id=flow_id, vp_name=vp_name,
    )


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
        if attempts < 1:
            raise MeasurementError(f"attempts must be at least 1, got {attempts}")
        self.network = network
        self.max_ttl = max_ttl
        self.jitter_ms = jitter_ms
        self.attempts = attempts
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
        #: The probe source and substrate versions the plan cache holds
        #: plans for, and ``(destination router uid, flapped tunnels) ->
        #: (forwarding path, hop plan)`` under that scope.  See
        #: :meth:`_hop_plan`.
        self._plan_scope: "tuple | None" = None
        self._plans: "dict[tuple[str, frozenset], tuple[list, tuple[PlanStep, ...]]]" = {}
        #: Router uid -> (path prefix, its transit steps), same scope.
        self._transits: "dict[str, tuple[list, tuple[PlanStep, ...]]]" = {}

    #: The campaign-cost counters, in the order a supervised worker's
    #: per-trace cost record carries them.
    COUNTERS = (
        "probes_sent", "traces_run", "probes_lost", "probes_refused",
        "probes_retried", "backoff_ms_total",
    )

    def counters(self) -> "dict[str, float]":
        """Snapshot of the campaign-cost counters."""
        return {name: getattr(self, name) for name in self.COUNTERS}

    def charge(self, cost) -> None:
        """Add *cost*, amounts in :attr:`COUNTERS` order, to the counters."""
        for name, amount in zip(self.COUNTERS, cost):
            setattr(self, name, getattr(self, name) + amount)

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

    def _hop_plan(self, src, source_addr, flow_id, path, dst_router, down) -> "tuple[PlanStep, ...]":
        """The hop plan of a trace along *path*, from the per-source cache.

        One :class:`PlanStep` per visible router after the source, in
        TTL order.  Plans are kept for the current probe source only;
        campaigns send each stage's jobs VP-major.  A cached plan is
        reused when the forwarding path is the same (under the walk memo
        the same list, under a route model an equal one) and no router,
        link, prefix route, LSP or rDNS record changed since it was
        built.  A step's reply facts are used only while
        ``router.policy`` is still the step's policy object: a policy
        is changed by assigning a new one, never edited in place.
        """
        network = self.network
        scope = (src.uid, source_addr, flow_id,
                 network.version, network.mpls.version, network.rdns.epoch)
        if scope != self._plan_scope:
            self._plan_scope = scope
            self._plans = {}
            self._transits = {}
        key = (dst_router.uid, down)
        cached = self._plans.get(key)
        if cached is not None and (cached[0] is path or cached[0] == path):
            return cached[1]
        probe_source = self._sources.get(source_addr)
        if probe_source is None:
            probe_source = self._sources[source_addr] = parse_ip(source_addr)
        visible = network.mpls.visible_path(path, dst_router, down=down)
        if len(visible) == len(path):
            # Nothing hidden: every router before the destination is a
            # transit hop, whose step other destinations share.
            plan = self._transit_steps(path, probe_source)
            if len(path) > 1:
                plan += (self._next_step(path, plan, probe_source, True),)
        else:
            plan = tuple(
                self._plan_step(router, inbound, one_way_ms, hop_index, probe_source, router is dst_router)
                for hop_index, (router, inbound, one_way_ms)
                in enumerate(network.hop_plan(path, visible), 1)
            )
        self._plans[key] = (path, plan)
        return plan

    def _transit_steps(self, path, probe_source) -> "tuple[PlanStep, ...]":
        """The steps of ``path[1:-1]``, each router a visible transit hop.

        The steps up to a router are kept per scope with the path
        prefix they were built for, so a plan extends the longest
        prefix an earlier plan built: a source's paths form a tree.
        """
        transits = self._transits
        last = len(path) - 2
        built, steps = 0, ()
        for k in range(last, 0, -1):
            cached = transits.get(path[k].uid)
            if cached is not None and cached[0] == path[:k + 1]:
                built, steps = k, cached[1]
                break
        for k in range(built + 1, last + 1):
            prefix = path[:k + 1]
            steps += (self._next_step(prefix, steps, probe_source, False),)
            transits[path[k].uid] = (prefix, steps)
        return steps

    def _next_step(self, path, steps, probe_source, is_final) -> PlanStep:
        """The step for ``path[-1]``, after *steps* cover ``path[1:-1]``."""
        inbound, hop_ms = self.network._hop(path[-2], path[-1])
        one_way_ms = (steps[-1].one_way_ms if steps else 0.0) + hop_ms
        return self._plan_step(path[-1], inbound, one_way_ms, len(path) - 1, probe_source, is_final)

    def _plan_step(self, router, inbound, one_way_ms, hop_index, probe_source, is_final) -> PlanStep:
        """One plan step: *router*'s reply facts at *hop_index*."""
        policy = router.policy
        answers = policy.answers_echo if is_final else policy.responds_to
        fixed = policy.respond_prob >= 1.0 and answers(probe_source, None)
        reply = name = None
        if not is_final:
            if policy.reply_from == "inbound":
                reply = inbound.text
                name = self.network.rdns.ptr(reply)
            else:
                fixed = False
        return PlanStep(
            router, inbound, one_way_ms, policy, fixed, reply, name,
            2.0 * one_way_ms + 0.1, policy.initial_ttl - (hop_index - 1),
            is_final, f"{hop_index})".encode(),
        )

    def trace(
        self,
        src: Router,
        dst_address: str,
        flow_id: int = 0,
        src_address: "str | None" = None,
    ) -> TraceResult:
        """Run one traceroute from *src* toward *dst_address*.

        Work is done at the coarsest level where it is fixed: link and
        address tables once per topology (``Network``), the forwarding
        path and the hop plan once per (source, destination router,
        flapped tunnels) while the substrate is unchanged
        (:meth:`_hop_plan`), hash prefixes once per trace.  A hop whose
        reply is fixed costs one RTT hash suffix, plus one loss draw
        when probe loss is the only per-probe fault; any other probe,
        and every probe under rate limiting or rDNS timeouts, pays the
        fault hooks, the reply-policy decision, the RTT hash suffix and
        the rDNS dig.
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
        dst_router, dst_exists = network.route_target(dst_text)
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
        plan = self._hop_plan(src, source_addr, flow_id, path, dst_router, down)
        plan = plan[:self.max_ttl]
        probe_source = self._sources[source_addr]
        # Every first-attempt RTT key is (source, dst, flow, ttl): absorb
        # the text of "rtt|(source, dst, flow, " once, add "ttl)" per hop.
        rtt_head = _hash_prefix(
            f"rtt|({source_addr!r}, {dst_address!r}, {flow_id!r}, "
        )
        # A fixed step's reply is certain unless a fault is drawn per
        # probe.  When probe loss is the only such fault, one loss draw
        # decides the first probe; its key text shares the RTT key's
        # "(source, dst, flow, " head and "ttl)" suffix.
        fast = faults is None or faults.loss_only_per_probe
        loss_head = (
            faults.loss_key_head(source_addr, dst_address, flow_id)
            if fast and faults is not None
            else None
        )
        jitter_ms = self.jitter_ms
        dig = network.rdns.dig
        hops = result.hops
        sent = lost = refused = 0
        for hop_index, (
            router, inbound, one_way_ms, policy, fixed, reply, name,
            rtt_base, reply_ttl, is_final, rtt_suffix,
        ) in enumerate(plan, 1):
            if (fixed and fast and router.policy is policy
                    and (dst_exists or not is_final)):
                sent += 1
                if (loss_head is None
                        or not faults.first_probe_lost(loss_head + rtt_suffix)):
                    # The reply is certain: only the RTT jitter is drawn,
                    # hashing the bytes _rtt would (see _extend_hash).
                    if is_final:
                        reply, name = dst_text, network.rdns.ptr(dst_text)
                        result.completed = True
                    state = rtt_head.copy()
                    state.update(rtt_suffix)
                    draw = int.from_bytes(state.digest(), "big")
                    hops.append(_new_tuple(Hop, (
                        hop_index, reply, name,
                        round(rtt_base + (draw % 1000) / 1000.0 * jitter_ms, 3),
                        reply_ttl, 1,
                    )))
                    continue
                # Lost in flight: the retries take the per-probe path.
                lost += 1
                first_attempt = 1
            else:
                first_attempt = 0
            base_key = (source_addr, dst_address, flow_id, hop_index)
            hop = None
            for attempt in range(first_attempt, self.attempts):
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
