"""FaultInjector: stats bookkeeping, VP lifecycle, checkpointed state."""

from repro.faults import FaultInjector, FaultPlan


def _injector(**plan_kwargs):
    return FaultInjector(FaultPlan(**plan_kwargs))


class TestStats:
    def test_probe_loss_counted(self):
        injector = _injector(seed=1, probe_loss=0.5)
        hits = sum(injector.probe_lost(("k", i)) for i in range(100))
        assert injector.stats.probes_lost == hits > 0

    def test_rdns_timeouts_counted(self):
        injector = _injector(seed=1, rdns_timeout=0.5)
        hits = sum(injector.rdns_timeout("1.2.3.4", i) for i in range(100))
        assert injector.stats.rdns_timeouts == hits > 0

    def test_rdns_timeout_is_call_order_independent(self):
        """The decision is keyed on (address, event key) alone: two
        injectors over one plan agree whatever order they are asked in,
        and fresh keys keep the timeout transient."""
        events = [(f"10.0.0.{i % 7}", ("probe", i)) for i in range(60)]
        first, second = (_injector(seed=2, rdns_timeout=0.5) for _ in range(2))
        forward = {key: first.rdns_timeout(*key) for key in events}
        backward = {key: second.rdns_timeout(*key) for key in reversed(events)}
        assert forward == backward
        assert True in forward.values() and False in forward.values()
        assert first.stats.rdns_timeouts == second.stats.rdns_timeouts


class TestVpLifecycle:
    def test_doomed_vp_dies_at_threshold(self):
        injector = _injector(seed=3, vp_dropout=1, vp_dropout_after=100)
        names = ["vp-a", "vp-b", "vp-c"]
        injector.register_fleet(names)
        doomed = injector.plan.doomed_vps(names)[0]
        assert injector.vp_alive(doomed)
        assert injector.vp_add_probes(doomed, 99) is True
        assert injector.vp_add_probes(doomed, 1) is False
        assert not injector.vp_alive(doomed)
        assert injector.stats.vps_killed == [doomed]

    def test_undoomed_vp_never_dies(self):
        injector = _injector(seed=3, vp_dropout=1, vp_dropout_after=10)
        names = ["vp-a", "vp-b", "vp-c"]
        injector.register_fleet(names)
        doomed = set(injector.plan.doomed_vps(names))
        survivor = next(n for n in names if n not in doomed)
        assert injector.vp_add_probes(survivor, 10_000) is True


class TestTunnels:
    def test_down_tunnels_empty_without_flap(self):
        injector = _injector(seed=4)
        assert injector.down_tunnels([], ("t",)) == frozenset()

    def test_down_tunnels_keyed_per_trace(self):
        class _Tunnel:
            def __init__(self, tid):
                self.tunnel_id = tid

        injector = _injector(seed=4, lsp_flap=0.5)
        tunnels = [_Tunnel(f"t{i}") for i in range(10)]
        first = injector.down_tunnels(tunnels, ("trace", 1))
        again = injector.down_tunnels(tunnels, ("trace", 1))
        other = injector.down_tunnels(tunnels, ("trace", 2))
        assert first == again
        assert first != other  # some trace differs at 0.5 flap rate


class TestCheckpointState:
    def test_state_round_trip_preserves_deaths(self):
        injector = _injector(seed=5, vp_dropout=2, vp_dropout_after=10)
        names = [f"vp{i}" for i in range(6)]
        injector.register_fleet(names)
        doomed = injector.plan.doomed_vps(names)
        injector.vp_add_probes(doomed[0], 10)  # kill the first
        injector.vp_add_probes(doomed[1], 6)   # wound the second

        restored = _injector(seed=5, vp_dropout=2, vp_dropout_after=10)
        restored.restore_state(injector.state_dict())
        assert not restored.vp_alive(doomed[0])
        assert restored.vp_alive(doomed[1])
        # The wounded VP's probe count survived: 4 more probes kill it.
        assert restored.vp_add_probes(doomed[1], 4) is False
        assert restored.stats.vps_killed[-1] == doomed[1]

    def test_state_dict_is_json_ready(self):
        import json

        injector = _injector(seed=5, vp_dropout=1, vp_dropout_after=5)
        injector.register_fleet(["a", "b"])
        injector.probe_lost(("k", 1))
        assert json.loads(json.dumps(injector.state_dict()))
