"""Seeded, deterministic fault plans.

The paper's campaigns ran against a hostile measurement floor: routers
rate-limit ICMP, hops go silent, hotspot VPs kick the prober mid-sweep
(§6.1), and phones lose signal across rural stretches (§7.1.1).  A
:class:`FaultPlan` describes a controllable dose of those conditions so
experiments can quantify how measurement failure distorts the inferred
topology ("Misleading Stars"-style ablations) and so the resilient
campaign layer has something to recover from.

Every decision is drawn from ``random.Random`` seeded with the plan
seed *and* the identity of the event being decided (per the repo rule
that all randomness is seeded).  Keying the generator on the event
identity rather than sharing one stream makes every draw independent of
call order, which is what lets a killed campaign resume from a
checkpoint and converge on the same output as an uninterrupted run.
The probe path makes one draw per probe sent, so :func:`seeded_uniform`
computes that first draw without ``random.Random``'s Python-level
seeding; its value is the stdlib's, bit for bit.
"""

from __future__ import annotations

import math
import random
from _random import Random as _CRandom
from dataclasses import dataclass, fields
from hashlib import sha512

from repro.errors import MeasurementError


def seeded_uniform(key: "str | bytes") -> float:
    """``random.Random(key).random()``, without the Python seed layers.

    ``random.Random`` seeds a ``str`` from the integer of its UTF-8
    bytes followed by their SHA-512 digest (version-2 seeding), and
    ``bytes`` the same way without the encode.  Building the C
    generator from that integer directly returns the same draw for
    about a third less time; the generator's own ``init_by_array``
    is what is left.
    """
    data = key.encode() if isinstance(key, str) else key
    return _CRandom(int.from_bytes(data + sha512(data).digest(), "big")).random()


#: The plan fields that are probabilities; every other field but the
#: seed is a count or a duration.
_PROBABILITIES = frozenset((
    "probe_loss", "rate_limit_share", "rate_limit_pass", "rdns_timeout",
    "vp_flap", "lsp_flap", "stale_rdns", "worker_crash", "worker_stall",
    "worker_slow",
))


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic dose of measurement failure.

    ``probe_loss``
        Probability any single probe (one TTL, one attempt) is lost in
        flight — models congestion loss and the unresponsive hops of
        §5.1.  Retries draw fresh keys, so losses are transient.
    ``rate_limit_share`` / ``rate_limit_pass``
        A ``rate_limit_share`` fraction of routers police ICMP
        generation; a policed router answers only a ``rate_limit_pass``
        fraction of probe identities (token-bucket exhaustion viewed
        statistically).  Retries may land in an open window.
    ``rdns_timeout``
        Probability a live ``dig`` PTR query times out transiently.
    ``vp_dropout`` / ``vp_dropout_after``
        ``vp_dropout`` vantage points (chosen deterministically from
        the registered fleet) die for good after sending
        ``vp_dropout_after`` probes — the hotspot that kicks the
        prober mid-sweep (§6.1).
    ``vp_flap``
        Probability a VP is transiently unusable for one traceroute
        (association drop / signal fade, §7.1.1); retryable.
    ``lsp_flap``
        Probability an MPLS LSP is down for the duration of one
        traceroute, causing the flow to ride plain IP and expose the
        tunnel interior that is normally hidden.
    ``stale_rdns``
        Probability a given address's combined PTR lookup returns a
        *donor* hostname — a name harvested from a different address in
        the snapshot — modelling the stale records left behind when
        equipment moves between COs (§4–§5, App. B.1).  Keyed per
        address, so every lookup of one address is consistently stale;
        this is the synthetic conflicting-rDNS campaign the
        inference-side guardrails quarantine.
    ``worker_crash`` / ``worker_stall`` / ``worker_slow``
        Process-level faults consulted by the supervised shard
        executor's *workers* (never by the probe path, so the serial
        oracle's corpus is untouched).  Each is the probability that
        one (shard, attempt) execution crashes hard (SIGKILL mid-shard,
        between heartbeats), stalls silently (stops heartbeating until
        the supervisor kills it), or runs slow (sleeps
        ``worker_slow_ms`` but completes).  Keyed on the shard id *and*
        the attempt number, so a retried shard draws fresh fate — a
        crash-prone shard recovers with probability 1 - rateᴺ across N
        retries, and a chaos run is exactly reproducible from the seed.
    """

    seed: int = 0
    probe_loss: float = 0.0
    rate_limit_share: float = 0.0
    rate_limit_pass: float = 0.5
    rdns_timeout: float = 0.0
    vp_dropout: int = 0
    vp_dropout_after: int = 0
    vp_flap: float = 0.0
    lsp_flap: float = 0.0
    stale_rdns: float = 0.0
    worker_crash: float = 0.0
    worker_stall: float = 0.0
    worker_slow: float = 0.0
    worker_slow_ms: float = 100.0

    def __post_init__(self) -> None:
        """Refuse a plan no campaign can honour: a probability outside
        [0, 1], or a negative count or duration."""
        for name in self.__dataclass_fields__:
            if name == "seed":
                continue
            value = getattr(self, name)
            probability = name in _PROBABILITIES
            try:
                honoured = 0.0 <= value <= (1.0 if probability else math.inf)
            except TypeError:
                honoured = False
            if not honoured:
                wanted = "a probability in [0, 1]" if probability else "a number >= 0"
                raise MeasurementError(
                    f"fault plan {name} must be {wanted}, not {value!r}"
                )

    # ------------------------------------------------------------------
    def _draw(self, *key: object) -> float:
        """One U(0,1) draw keyed on the event identity (order-free)."""
        text = "|".join(str(part) for part in key)
        return seeded_uniform(f"faultplan|{self.seed}|{text}")

    @property
    def active(self) -> bool:
        """False when the plan injects nothing (the no-op plan)."""
        numeric = (
            self.probe_loss, self.rate_limit_share, self.rdns_timeout,
            self.vp_flap, self.lsp_flap, self.stale_rdns,
            self.worker_crash, self.worker_stall, self.worker_slow,
        )
        return any(v > 0.0 for v in numeric) or self.vp_dropout > 0

    # ------------------------------------------------------------------
    # Per-event decisions
    # ------------------------------------------------------------------
    def probe_lost(self, probe_key: object) -> bool:
        """Whether this probe is lost in flight."""
        return (
            self.probe_loss > 0.0
            and seeded_uniform(f"faultplan|{self.seed}|loss|{probe_key}")
            < self.probe_loss
        )

    def router_rate_limits(self, router_uid: str) -> bool:
        """Whether *router_uid* polices its ICMP generation at all."""
        return (
            self.rate_limit_share > 0.0
            and self._draw("rl-router", router_uid) < self.rate_limit_share
        )

    def rate_limited(self, router_uid: str, probe_key: object) -> bool:
        """Whether the router's rate limiter eats this probe."""
        if not self.router_rate_limits(router_uid):
            return False
        return self._draw("rl-window", router_uid, probe_key) >= self.rate_limit_pass

    def rdns_timed_out(self, address: str, token: object) -> bool:
        """Whether a ``dig`` for *address* times out this time."""
        return (
            self.rdns_timeout > 0.0
            and self._draw("rdns", address, token) < self.rdns_timeout
        )

    def doomed_vps(self, names) -> "tuple[str, ...]":
        """The ``vp_dropout`` fleet members fated to die (stable pick)."""
        ordered = sorted(set(names))
        count = min(self.vp_dropout, len(ordered))
        if count <= 0:
            return ()
        rng = random.Random(f"faultplan|{self.seed}|vp-dropout")
        return tuple(sorted(rng.sample(ordered, count)))

    def vp_flapped(self, vp_name: str, token: object) -> bool:
        """Whether *vp_name* is transiently unusable for this trace."""
        return (
            self.vp_flap > 0.0
            and self._draw("vp-flap", vp_name, token) < self.vp_flap
        )

    def lsp_down(self, tunnel_id: str, token: object) -> bool:
        """Whether this LSP is flapped down for the duration of a trace."""
        return (
            self.lsp_flap > 0.0
            and self._draw("lsp", tunnel_id, token) < self.lsp_flap
        )

    def rdns_stale(self, address: str) -> bool:
        """Whether *address*'s PTR record is stale (stable per address)."""
        return (
            self.stale_rdns > 0.0
            and self._draw("stale-rdns", address) < self.stale_rdns
        )

    def stale_donor_index(self, address: str, count: int) -> int:
        """Which of *count* donor hostnames a stale address borrows."""
        return int(self._draw("stale-donor", address) * count) % count

    # ------------------------------------------------------------------
    # Process-level (shard executor) decisions
    # ------------------------------------------------------------------
    def worker_crashed(self, shard_id: str, attempt: int) -> bool:
        """Whether the worker running this (shard, attempt) dies hard."""
        return (
            self.worker_crash > 0.0
            and self._draw("worker-crash", shard_id, attempt) < self.worker_crash
        )

    def worker_stalled(self, shard_id: str, attempt: int) -> bool:
        """Whether the worker stops heartbeating mid-shard."""
        return (
            self.worker_stall > 0.0
            and self._draw("worker-stall", shard_id, attempt) < self.worker_stall
        )

    def worker_slowed(self, shard_id: str, attempt: int) -> bool:
        """Whether the worker runs slow (but completes) this attempt."""
        return (
            self.worker_slow > 0.0
            and self._draw("worker-slow", shard_id, attempt) < self.worker_slow
        )

    def retry_jitter(self, key: object, attempt: int) -> float:
        """A U(0,1) jitter factor for retry backoff, keyed per attempt.

        Both the supervised shard executor and the campaign service
        scale their exponential backoff by ``0.5 + retry_jitter(...)``
        so retries desynchronize without losing reproducibility: the
        jitter comes from the same seeded, event-keyed stream as every
        other fault decision, so a chaos soak run is identical
        run-to-run.
        """
        return self._draw("retry-jitter", key, attempt)

    def failure_point(
        self, shard_id: str, attempt: int, job_count: int, kind: str = "crash"
    ) -> int:
        """Which job index a crash/stall interrupts (always < job_count)."""
        if job_count <= 0:
            return 0
        index = int(
            self._draw(f"worker-point-{kind}", shard_id, attempt) * job_count
        )
        return min(index, job_count - 1)

    # ------------------------------------------------------------------
    def as_dict(self) -> "dict[str, object]":
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: "dict[str, object]") -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})
