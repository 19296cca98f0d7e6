"""FaultPlan: seeded, order-independent, no-op by default."""

import pytest

from repro.errors import MeasurementError
from repro.faults import FaultPlan


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        keys = [("1.2.3.4", "5.6.7.8", 0, ttl) for ttl in range(1, 30)]
        a = FaultPlan(seed=7, probe_loss=0.3)
        b = FaultPlan(seed=7, probe_loss=0.3)
        assert [a.probe_lost(k) for k in keys] == [b.probe_lost(k) for k in keys]

    def test_different_seeds_differ(self):
        keys = [("1.2.3.4", "5.6.7.8", 0, ttl) for ttl in range(1, 200)]
        a = FaultPlan(seed=1, probe_loss=0.5)
        b = FaultPlan(seed=2, probe_loss=0.5)
        assert [a.probe_lost(k) for k in keys] != [b.probe_lost(k) for k in keys]

    def test_order_independent(self):
        """A decision depends only on the event identity, never on how
        many draws happened before it — the property resume relies on."""
        plan = FaultPlan(seed=3, probe_loss=0.5, rdns_timeout=0.5)
        key = ("9.9.9.9", "8.8.8.8", 4, 11)
        first = plan.probe_lost(key)
        for ttl in range(1, 500):  # burn hundreds of unrelated decisions
            plan.probe_lost(("a", "b", 0, ttl))
            plan.rdns_timed_out("7.7.7.7", ttl)
        assert plan.probe_lost(key) == first

    def test_loss_rate_approximate(self):
        plan = FaultPlan(seed=0, probe_loss=0.2)
        hits = sum(plan.probe_lost(("k", i)) for i in range(5000))
        assert 0.17 < hits / 5000 < 0.23


class TestNoOpPlan:
    def test_empty_plan_inactive(self):
        assert not FaultPlan().active
        assert FaultPlan(seed=99).active is False

    def test_empty_plan_injects_nothing(self):
        plan = FaultPlan(seed=5)
        assert not any(plan.probe_lost(("k", i)) for i in range(200))
        assert not plan.rate_limited("r1", ("k", 0))
        assert not plan.rdns_timed_out("1.1.1.1", 0)
        assert not plan.vp_flapped("vp", 0)
        assert not plan.lsp_down("t1", 0)
        assert plan.doomed_vps(["a", "b"]) == ()

    def test_any_fault_activates(self):
        assert FaultPlan(probe_loss=0.1).active
        assert FaultPlan(vp_dropout=1).active
        assert FaultPlan(lsp_flap=0.1).active


class TestVpDropout:
    def test_doomed_picks_stable_across_orderings(self):
        plan = FaultPlan(seed=4, vp_dropout=2)
        names = [f"vp{i}" for i in range(8)]
        assert plan.doomed_vps(names) == plan.doomed_vps(list(reversed(names)))

    def test_doomed_count_capped_by_fleet(self):
        plan = FaultPlan(seed=4, vp_dropout=10)
        assert len(plan.doomed_vps(["a", "b"])) == 2


class TestRateLimiting:
    def test_only_some_routers_police(self):
        plan = FaultPlan(seed=6, rate_limit_share=0.5)
        policed = [
            uid for uid in (f"r{i}" for i in range(50))
            if plan.router_rate_limits(uid)
        ]
        assert 0 < len(policed) < 50

    def test_unpoliced_router_never_limits(self):
        plan = FaultPlan(seed=6, rate_limit_share=0.5)
        clean = next(
            uid for uid in (f"r{i}" for i in range(50))
            if not plan.router_rate_limits(uid)
        )
        assert not any(plan.rate_limited(clean, ("k", i)) for i in range(100))

    def test_policed_router_partially_answers(self):
        plan = FaultPlan(seed=6, rate_limit_share=1.0, rate_limit_pass=0.5)
        eaten = sum(plan.rate_limited("r0", ("k", i)) for i in range(1000))
        assert 400 < eaten < 600


class TestSerialization:
    def test_round_trip(self):
        plan = FaultPlan(seed=9, probe_loss=0.1, vp_dropout=2,
                         vp_dropout_after=100, lsp_flap=0.05)
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_from_dict_ignores_unknown_keys(self):
        assert FaultPlan.from_dict({"seed": 1, "future_field": 3}).seed == 1


class TestValidation:
    @pytest.mark.parametrize("field", [
        "probe_loss", "rate_limit_share", "rate_limit_pass", "rdns_timeout",
        "vp_flap", "lsp_flap", "stale_rdns", "worker_crash", "worker_stall",
        "worker_slow",
    ])
    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
    def test_probabilities_outside_the_unit_interval_rejected(self, field, value):
        with pytest.raises(MeasurementError, match=f"{field} must be a probability"):
            FaultPlan(**{field: value})

    @pytest.mark.parametrize("field", ["vp_dropout", "vp_dropout_after", "worker_slow_ms"])
    def test_negative_counts_and_durations_rejected(self, field):
        with pytest.raises(MeasurementError, match=f"{field} must be a number >= 0"):
            FaultPlan(**{field: -1})

    def test_bounds_accepted(self):
        FaultPlan(seed=-3, probe_loss=1.0, worker_crash=0.0, vp_dropout=0, worker_slow_ms=0.0)


class TestWorkerFaults:
    def test_keyed_on_shard_and_attempt(self):
        """A retried shard draws a fresh fate — the property that lets
        a crash-fated attempt succeed on its retry."""
        plan = FaultPlan(seed=11, worker_crash=0.5)
        fates = {
            (shard, attempt): plan.worker_crashed(shard, attempt)
            for shard in (f"s/{i:04d}-abcd1234" for i in range(10))
            for attempt in (1, 2, 3)
        }
        again = FaultPlan(seed=11, worker_crash=0.5)
        assert fates == {
            key: again.worker_crashed(*key) for key in fates
        }
        # Some shard's fate must differ across attempts.
        assert any(
            fates[(s, 1)] != fates[(s, 2)]
            for s in {key[0] for key in fates}
        )

    def test_worker_faults_activate_the_plan(self):
        assert FaultPlan(worker_crash=0.1).active
        assert FaultPlan(worker_stall=0.1).active
        assert FaultPlan(worker_slow=0.1).active
        assert not FaultPlan().worker_crashed("s", 1)

    def test_failure_point_always_within_shard(self):
        plan = FaultPlan(seed=2, worker_crash=1.0)
        for count in (1, 2, 7, 100):
            for attempt in (1, 2):
                index = plan.failure_point("s/0000-aa", attempt, count)
                assert 0 <= index < count
        assert plan.failure_point("s/0000-aa", 1, 0) == 0

    def test_crash_and_stall_points_drawn_independently(self):
        plan = FaultPlan(seed=8, worker_crash=1.0, worker_stall=1.0)
        crash = [plan.failure_point(f"s{i}", 1, 1000, kind="crash")
                 for i in range(20)]
        stall = [plan.failure_point(f"s{i}", 1, 1000, kind="stall")
                 for i in range(20)]
        assert crash != stall

    def test_round_trip_keeps_worker_fields(self):
        plan = FaultPlan(seed=4, worker_crash=0.2, worker_stall=0.1,
                         worker_slow=0.3, worker_slow_ms=25.0)
        assert FaultPlan.from_dict(plan.as_dict()) == plan


class TestRetryJitter:
    """Satellite 6: retry backoff jitter rides the seeded fault RNG."""

    def test_seeded_and_reproducible(self):
        a = FaultPlan(seed=7)
        b = FaultPlan(seed=7)
        draws = [(key, n) for key in ("shard-0", "job-abc") for n in (1, 2, 3)]
        assert [a.retry_jitter(k, n) for k, n in draws] \
            == [b.retry_jitter(k, n) for k, n in draws]

    def test_seed_and_key_dependent(self):
        base = FaultPlan(seed=7).retry_jitter("shard-0", 1)
        assert base != FaultPlan(seed=8).retry_jitter("shard-0", 1)
        assert base != FaultPlan(seed=7).retry_jitter("shard-1", 1)
        assert base != FaultPlan(seed=7).retry_jitter("shard-0", 2)

    def test_unit_interval(self):
        plan = FaultPlan(seed=0)
        for attempt in range(1, 20):
            assert 0.0 <= plan.retry_jitter("s", attempt) < 1.0

    def test_order_independent(self):
        plan = FaultPlan(seed=5)
        first = plan.retry_jitter("s9", 3)
        for n in range(200):
            plan.retry_jitter(f"other-{n}", 1)
        assert plan.retry_jitter("s9", 3) == first
