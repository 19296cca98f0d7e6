"""Substrate factories for process-sharded campaign workers.

A supervised worker runs in a *spawned* process: it shares no memory
with the supervisor, so it must rebuild its own measurement substrate
— network, vantage points, tracer — from a picklable description.
Because every substrate in this repo is a pure function of its seed
and build flags — the routing policy included — that description is
just ``(factory, kwargs)``:
a :class:`WorkerSpec` names a module-level factory by dotted path and
carries its keyword arguments, and the worker resolves and calls it
after the spawn.

Factories return ``(tracer, vps_by_name)``: a
:class:`~repro.measure.traceroute.Tracerouter` over a freshly built
network, plus every vantage point the campaign's jobs may reference,
keyed by name.  The supervisor overrides the tracer's probe parameters
(max_ttl, attempts, backoff) with the canonical run's values, so a
factory never needs to replicate campaign configuration.

Cable campaigns build their in-process substrate with
:func:`cable_campaign`, which also returns the :class:`WorkerSpec` that
rebuilds it, so the two sides share one recipe.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

from repro.errors import MeasurementError


@dataclass(frozen=True)
class WorkerSpec:
    """A picklable recipe for rebuilding a substrate in a worker.

    ``factory`` is ``"module.path:callable"``; ``kwargs`` must be
    picklable (they cross the spawn boundary).  Resolution is validated
    eagerly so a typo fails in the supervisor, not in a dead worker.
    """

    factory: str
    kwargs: "dict[str, object]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.resolve()

    def resolve(self):
        module_name, sep, func_name = self.factory.partition(":")
        if not sep or not module_name or not func_name:
            raise MeasurementError(
                f"worker factory {self.factory!r} is not 'module:callable'"
            )
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise MeasurementError(
                f"worker factory module {module_name!r} not importable: {exc}"
            ) from exc
        func = getattr(module, func_name, None)
        if not callable(func):
            raise MeasurementError(
                f"worker factory {self.factory!r} does not name a callable"
            )
        return func

    def build(self):
        """Build the substrate: returns ``(tracer, vps_by_name)``."""
        return self.resolve()(**self.kwargs)


# ----------------------------------------------------------------------
# Factories
# ----------------------------------------------------------------------
def toy_network():
    """The 6-router diamond with a routed customer prefix.

    ::

        src --- a --- b1 --- dst  (b1/b2 equal-cost: metric 1 each)
                  \\-- b2 --/
        dst owns 198.18.5.0/24 via a prefix route.

    The unit-test substrate (the ``toy_network`` fixture delegates
    here) and the chaos-smoke substrate: big enough to exercise every
    execution path, small enough that a worker rebuilds it in
    microseconds.
    """
    from repro.net.network import Network
    from repro.net.router import Router

    net = Network()
    routers = {}
    for uid in ("src", "a", "b1", "b2", "dst"):
        routers[uid] = net.add_router(Router(uid))
    net.connect(routers["src"], routers["a"], "10.0.0.1", "10.0.0.2",
                prefixlen=30, length_km=10)
    net.connect(routers["a"], routers["b1"], "10.0.0.5", "10.0.0.6",
                prefixlen=30, length_km=10, metric=1.0)
    net.connect(routers["a"], routers["b2"], "10.0.0.9", "10.0.0.10",
                prefixlen=30, length_km=10, metric=1.0)
    net.connect(routers["b1"], routers["dst"], "10.0.0.13", "10.0.0.14",
                prefixlen=30, length_km=10, metric=1.0)
    net.connect(routers["b2"], routers["dst"], "10.0.0.17", "10.0.0.18",
                prefixlen=30, length_km=10, metric=1.0)
    net.add_prefix_route("198.18.5.0/24", routers["dst"])
    return net, routers


def toy_substrate(hosts: int = 3):
    """Diamond network plus *hosts* probe VPs hanging off router ``a``."""
    from repro.measure.traceroute import Tracerouter
    from repro.measure.vantage import VantagePoint, attach_host

    net, routers = toy_network()
    vps = {}
    for index in range(hosts):
        host, addr = attach_host(
            net, routers["a"], f"probe{index}", f"10.9.{index}.0/30"
        )
        vp = VantagePoint(f"vp{index}", "transit", host, addr)
        vps[vp.name] = vp
    return Tracerouter(net), vps


def cable_campaign(seed: int = 0, route_model: str = "spf",
                   include_telco: bool = False, include_mobile: bool = False):
    """Build a cable campaign's substrate: ``(internet, fleet, worker_spec)``.

    The substrate is the simulated internet (cable ISPs only unless the
    flags ask for more), the standard 47-VP fleet and the routing
    policy: a non-``spf`` *route_model* (see
    :mod:`repro.bias.routemodel`) is attached to the network after the
    fleet is built.  *worker_spec* rebuilds exactly this substrate in a
    spawned worker, so in-process and supervised probing cannot drift.
    """
    from repro.topology.internet import SimulatedInternet

    internet = SimulatedInternet(
        seed=seed, include_telco=include_telco, include_mobile=include_mobile,
    )
    fleet = list(internet.build_standard_vps())
    if route_model != "spf":
        # Imported only when asked for: the bias package pulls in numpy,
        # which spf campaigns and their workers never load.
        from repro.bias.routemodel import build_route_model

        internet.network.route_model = build_route_model(internet, route_model)
    worker_spec = WorkerSpec(
        "repro.measure.substrates:cable_substrate",
        {"seed": seed, "route_model": route_model,
         "include_telco": include_telco, "include_mobile": include_mobile},
    )
    return internet, fleet, worker_spec


def cable_substrate(**build_flags):
    """The worker-side view of :func:`cable_campaign`'s build."""
    from repro.measure.traceroute import Tracerouter

    internet, fleet, _spec = cable_campaign(**build_flags)
    return Tracerouter(internet.network), {vp.name: vp for vp in fleet}
