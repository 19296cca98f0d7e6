"""Determinism regression: everything is seeded, nothing reads global
RNG state, so same seed ⇒ same world and same measurements."""

from repro.faults import FaultInjector, FaultPlan
from repro.measure.traceroute import Tracerouter
from repro.net.network import Network
from repro.topology.cable import build_comcast_like
from repro.topology.geography import Geography
from repro.topology.mobile import build_mobile_carriers


def _build():
    net = Network()
    return net, build_comcast_like(net, Geography(), seed=42)


class TestSameSeedSameWorld:
    def test_identical_address_plan(self):
        net_a, _ = _build()
        net_b, _ = _build()
        assert sorted(net_a.all_addresses()) == sorted(net_b.all_addresses())

    def test_identical_rdns(self):
        net_a, _ = _build()
        net_b, _ = _build()
        assert list(net_a.rdns.snapshot_items()) == list(net_b.rdns.snapshot_items())

    def test_identical_co_tags(self):
        _net_a, isp_a = _build()
        _net_b, isp_b = _build()
        tags_a = sorted(
            isp_a.co_tag(co)
            for region in isp_a.regions.values()
            for co in region.cos.values()
        )
        tags_b = sorted(
            isp_b.co_tag(co)
            for region in isp_b.regions.values()
            for co in region.cos.values()
        )
        assert tags_a == tags_b

    def test_identical_traceroutes(self):
        results = []
        for _ in range(2):
            net, isp = _build()
            src = isp.regions["seattle"].edge_cos[0].routers[0]
            dst = str(
                isp.regions["denver"].edge_cos[0].routers[0].interfaces[0].address
            )
            trace = Tracerouter(net).trace(src, dst, flow_id=7)
            results.append([(h.address, h.rtt_ms) for h in trace.hops])
        assert results[0] == results[1]

    def test_identical_mobile_attachments(self):
        prefixes = []
        for _ in range(2):
            carriers = build_mobile_carriers(Geography(), seed=42)
            attachment = carriers["verizon"].attach(40.7, -74.0)
            prefixes.append(str(attachment.user_prefix))
        assert prefixes[0] == prefixes[1]

    def test_identical_vantage_point_hosts(self):
        """Hosts are numbered per network, so a second build of one
        substrate in the same process names its hosts as the first did."""
        from repro.measure.substrates import cable_campaign

        builds = []
        for _ in range(2):
            internet, fleet, _spec = cable_campaign(seed=0)
            tracer = Tracerouter(internet.network)
            targets = [addr for addr, _name in internet.network.rdns.snapshot_items()][:3]
            traces = [
                [(h.address, h.rtt_ms) for h in tracer.trace(
                    vp.host, target, src_address=vp.src_address).hops]
                for vp in fleet[:4] for target in targets
            ]
            builds.append(([vp.host.uid for vp in fleet], traces))
        assert builds[0] == builds[1]

    def test_different_seeds_differ(self):
        nets = []
        for seed in (1, 2):
            net = Network()
            build_comcast_like(net, Geography(), seed=seed)
            nets.append(sorted(
                name for _a, name in net.rdns.snapshot_items()
            ))
        assert nets[0] != nets[1]


class TestFaultDeterminism:
    """The fault substrate must never perturb the fault-free world."""

    def _endpoints(self, net, isp):
        src = isp.regions["seattle"].edge_cos[0].routers[0]
        dst = str(
            isp.regions["denver"].edge_cos[0].routers[0].interfaces[0].address
        )
        return src, dst

    def _hops(self, trace):
        return [(h.address, h.rdns, h.rtt_ms, h.attempts) for h in trace.hops]

    def test_empty_plan_identical_to_no_plan(self):
        net, isp = _build()
        src, dst = self._endpoints(net, isp)
        bare = Tracerouter(net).trace(src, dst, flow_id=7)
        net.attach_faults(FaultInjector(FaultPlan()))
        injected = Tracerouter(net).trace(src, dst, flow_id=7)
        net.detach_faults()
        assert self._hops(bare) == self._hops(injected)

    def test_retry_config_alone_identical_to_seed(self):
        """attempts>1 with nothing to retry reproduces attempts=1 exactly
        (the first attempt of every probe keeps its historical key)."""
        net, isp = _build()
        src, dst = self._endpoints(net, isp)
        single = Tracerouter(net).trace(src, dst, flow_id=7)
        triple = Tracerouter(net, attempts=3).trace(src, dst, flow_id=7)
        assert self._hops(single) == self._hops(triple)

    def test_same_seed_same_faulty_trace(self):
        results = []
        for _ in range(2):
            net, isp = _build()
            src, dst = self._endpoints(net, isp)
            net.attach_faults(
                FaultInjector(FaultPlan(seed=9, probe_loss=0.3, lsp_flap=0.2))
            )
            trace = Tracerouter(net, attempts=2).trace(src, dst, flow_id=7)
            results.append(self._hops(trace))
        assert results[0] == results[1]

    def test_fault_seeds_differ(self):
        results = []
        for fault_seed in (1, 2):
            net, isp = _build()
            src = isp.regions["seattle"].edge_cos[0].routers[0]
            net.attach_faults(
                FaultInjector(FaultPlan(seed=fault_seed, probe_loss=0.5))
            )
            tracer = Tracerouter(net)
            traces = [
                tracer.trace(src, dst, flow_id=f)
                for f in range(4)
                for dst in [
                    str(
                        isp.regions["denver"].edge_cos[0]
                        .routers[0].interfaces[0].address
                    )
                ]
            ]
            results.append([self._hops(t) for t in traces])
        assert results[0] != results[1]
