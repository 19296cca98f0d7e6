"""Fault draws equal the stdlib's ``random.Random(text).random()``.

Every fault decision, in every committed digest, was drawn through
``random.Random``.  :func:`seeded_uniform` and the tracer's per-trace
loss-draw head compute the same draws by a shorter route, so each is
checked against the stdlib itself, never against another fast path.
"""

from __future__ import annotations

import ipaddress
import random

from hypothesis import given, settings, strategies as st

from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import seeded_uniform


def stdlib_draw(seed, *key) -> float:
    """A fault draw as the plans have always keyed it."""
    text = "|".join(str(part) for part in key)
    return random.Random(f"faultplan|{seed}|{text}").random()


@settings(max_examples=300)
@given(text=st.text())
def test_seeded_uniform_equals_the_stdlib_for_any_text(text):
    assert seeded_uniform(text) == random.Random(text).random()


@settings(max_examples=100)
@given(data=st.binary())
def test_seeded_uniform_equals_the_stdlib_for_any_bytes(data):
    assert seeded_uniform(data) == random.Random(data).random()


def test_non_ascii_text_is_seeded_from_its_utf8_bytes():
    for text in ("faultplan|0|loss|('é', '2001:db8::1', 0, 1)", "δρόμος", "\U0001f4e1", ""):
        assert seeded_uniform(text) == random.Random(text).random()
        assert seeded_uniform(text.encode()) == random.Random(text).random()


v4 = st.integers(0, 2**32 - 1).map(lambda v: str(ipaddress.IPv4Address(v)))
v6 = st.integers(0, 2**128 - 1).map(lambda v: str(ipaddress.IPv6Address(v)))
#: Destinations as callers spell them: canonical, upper-case IPv6, or
#: fully exploded IPv6 (the probe key keeps the raw spelling).
destinations = st.one_of(
    v4, v6,
    v6.map(str.upper),
    st.integers(0, 2**128 - 1).map(lambda v: ipaddress.IPv6Address(v).exploded),
)
flows = st.one_of(st.integers(0, 2**16), st.text(max_size=8))


@settings(max_examples=300)
@given(
    seed=st.integers(0, 10_000), src=st.one_of(v4, v6), dst=destinations,
    flow=flows, ttl=st.integers(1, 64),
)
def test_the_per_trace_head_keys_the_first_probe_draw(seed, src, dst, flow, ttl):
    plan = FaultPlan(seed=seed, probe_loss=0.5)
    injector = FaultInjector(plan)
    head = injector.loss_key_head(src, dst, flow)
    key = (src, dst, flow, ttl)
    expected = stdlib_draw(seed, "loss", key)
    assert seeded_uniform(head + f"{ttl})".encode()) == expected
    assert injector.first_probe_lost(head + f"{ttl})".encode()) == (expected < 0.5)
    assert plan.probe_lost(key) == (expected < 0.5)
    # Retries draw under their own key, through the generic path.
    retry = (*key, "a1")
    assert plan.probe_lost(retry) == (stdlib_draw(seed, "loss", retry) < 0.5)


def test_the_head_is_absent_when_no_probe_is_lost():
    assert FaultInjector(FaultPlan(seed=1, lsp_flap=0.5)).loss_key_head("10.0.0.1", "10.0.0.2", 0) is None


def test_every_plan_decision_keeps_its_stdlib_draw():
    plan = FaultPlan(
        seed=11, probe_loss=0.5, rate_limit_share=0.5, rdns_timeout=0.5, vp_flap=0.5,
        lsp_flap=0.5, stale_rdns=0.5, worker_crash=0.5, worker_stall=0.5, worker_slow=0.5,
    )
    cases = [
        (plan.router_rate_limits("r1"), ("rl-router", "r1")),
        (plan.rdns_timed_out("10.0.0.1", ("a", 1)), ("rdns", "10.0.0.1", ("a", 1))),
        (plan.vp_flapped("vp-3", 7), ("vp-flap", "vp-3", 7)),
        (plan.lsp_down("t9", ("s", "d", 0)), ("lsp", "t9", ("s", "d", 0))),
        (plan.rdns_stale("2001:db8::1"), ("stale-rdns", "2001:db8::1")),
        (plan.worker_crashed("s-1", 2), ("worker-crash", "s-1", 2)),
        (plan.worker_stalled("s-1", 2), ("worker-stall", "s-1", 2)),
        (plan.worker_slowed("s-1", 2), ("worker-slow", "s-1", 2)),
    ]
    for decided, key in cases:
        assert decided == (stdlib_draw(11, *key) < 0.5), key
    assert plan.retry_jitter("job", 3) == stdlib_draw(11, "retry-jitter", "job", 3)
