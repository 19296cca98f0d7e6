"""Per-layer call counts and self time, measured from outside the program.

:class:`LayerClock` wraps public functions of ``repro`` (and two private
seams, ``Network._sssp`` and ``Tracerouter._rtt``) while it is
installed.  Each wrapped call adds one to its layer's ``calls`` and its
*self time* — the call's duration minus the time spent in wrapped
callees — to the layer's ``self_s``.  Nothing is written while the
program runs: the accumulators live in memory until the caller reads
:meth:`LayerClock.metrics`.

The wrappers live in the benchmark, not in ``src/``, so an untraced run
executes exactly the code users run.  Wrapping every hop-level call is
expensive (tens of percent on a charter campaign), which is why the
benchmark reports end-to-end numbers only from untraced runs.

Layers are named after the repo modules they wrap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: Campaign stages the serial runner executes: the three §5 sweeps of a
#: ``map-cable`` run, plus the single stage of a service toy job.
RUNNER_STAGES = ("slash24", "rdns", "followup", "campaign")
#: Stages the supervised runner shards across worker processes.
SUPERVISOR_STAGES = ("slash24", "rdns", "followup")

#: ``(module, attribute, label)``: a class method is ``Class.method``;
#: a bare function is patched in every ``repro`` module that imported
#: it by name.  Several targets may share one label.
TARGETS = (
    ("repro.topology.internet", "SimulatedInternet.__init__", "topology.build"),
    ("repro.topology.internet", "SimulatedInternet.build_standard_vps", "topology.build"),
    ("repro.net.network", "Network.route_target", "net.route_target"),
    ("repro.net.network", "Network.forwarding_path", "net.forwarding_path"),
    ("repro.net.network", "Network.inbound_interfaces", "net.inbound_interfaces"),
    ("repro.net.network", "Network.path_delays_ms", "net.path_delays_ms"),
    ("repro.net.mpls", "MplsDomain.visible_path", "net.mpls.visible_path"),
    ("repro.net.router", "Router.probe_response", "net.router.probe_response"),
    ("repro.net.router", "Router.reply_address", "net.router.reply_address"),
    ("repro.net.router", "_stable_hash", "net.stable_hash"),
    ("repro.net.dns", "RdnsStore.dig", "net.dns.dig"),
    ("repro.net.dns", "RdnsStore.lookup", "net.dns.lookup"),
    ("repro.measure.traceroute", "Tracerouter.trace", "measure.trace"),
    ("repro.measure.traceroute", "Tracerouter._rtt", "measure.rtt"),
    ("repro.alias.resolve", "AliasResolver.resolve", "alias.resolve"),
    ("repro.corpus.columnar", "TraceCorpus.from_traces", "corpus.from_traces"),
    ("repro.corpus.binio", "save_corpus", "corpus.save"),
    ("repro.corpus.binio", "load_corpus", "corpus.load"),
    ("repro.infer.ip2co", "Ip2CoMapper.build", "infer.ip2co"),
    ("repro.infer.ip2co", "Ip2CoMapper.build_columnar", "infer.ip2co"),
    ("repro.infer.adjacency", "AdjacencyExtractor.extract", "infer.adjacency"),
    ("repro.infer.adjacency", "AdjacencyExtractor.extract_columnar", "infer.adjacency"),
    ("repro.infer.refine", "RegionRefiner.refine", "infer.refine"),
    ("repro.infer.entries", "EntryInferrer.backbone_entries", "infer.entries"),
    ("repro.infer.entries", "EntryInferrer.inter_region_entries", "infer.entries"),
    ("repro.io.export", "region_to_json", "io.export"),
    ("repro.io.export", "campaign_health_to_json", "io.export"),
    ("repro.obs.manifest", "build_run_manifest", "io.export"),
    ("repro.obs.manifest", "write_run_manifest", "io.export"),
    ("repro.io.atomic", "atomic_write_text", "io.export"),
    ("repro.io.checkpoint", "CampaignCheckpoint.save", "io.checkpoint.save"),
    ("repro.service.store", "JobStore.append", "service.store.append"),
    ("repro.service.store", "JobStore.compact", "service.store.compact"),
    ("repro.service.executor", "JobExecutor.execute", "service.executor.execute"),
    ("repro.service.http", "ServiceAPI.handle", "service.http.handle"),
)

#: Every timed layer.  The last ones come from wrappers whose label
#: depends on the call (see :meth:`LayerClock.install`).
LABELS = tuple(dict.fromkeys(
    [label for _module, _attr, label in TARGETS]
    + ["net.sssp", "service.store.open_readonly"]
    + [f"measure.runner.{stage}" for stage in RUNNER_STAGES]
    + [f"measure.supervisor.{stage}" for stage in SUPERVISOR_STAGES]
))

#: Work counts recorded beside the timings.
COUNTS = tuple(f"measure.runner.{stage}.jobs" for stage in RUNNER_STAGES)

#: Modules imported before patching, so that every ``from x import f``
#: binding a run will use exists when the wrappers go in.
_PRELOAD = (
    "repro.cli",
    "repro.infer.pipeline",
    "repro.measure.supervisor",
    "repro.measure.substrates",
    "repro.service.service",
    "repro.service.http",
)


def _stage_of(args, kwargs) -> str:
    """The ``stage`` argument of a ``run(jobs, stage=...)`` call."""
    if "stage" in kwargs:
        return kwargs["stage"]
    return args[2] if len(args) > 2 else "campaign"


class LayerClock:
    """In-memory call counts and self times, keyed by layer label.

    ``timer`` is injectable so tests can check the self-time
    arithmetic against a scripted clock.  Self time is tracked per
    thread: the service's heartbeat thread appends to the journal
    while the main thread runs an attempt.
    """

    def __init__(self, timer=time.perf_counter) -> None:
        self.timer = timer
        self.calls: "dict[str, int]" = defaultdict(int)
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.counts: "dict[str, int]" = defaultdict(int)
        self._local = threading.local()
        #: ``(owner, name, original)`` for every attribute replaced.
        self._patches: "list[tuple[object, str, object]]" = []
        #: ``id(wrapper) → (wrapper, original)``, to find copies of a
        #: wrapper that modules imported after :meth:`install`.
        self._wrappers: "dict[int, tuple[object, object]]" = {}

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def timed(self, label_of, fn):
        """Wrap *fn*; ``label_of(args, kwargs)`` names the layer.

        A ``None`` label passes the call through untimed and uncounted
        (its duration then lands in the caller's self time).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = label_of(args, kwargs)
            if label is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            start = self.timer()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.timer() - start
                inner = stack.pop()
                self.calls[label] += 1
                self.self_s[label] += elapsed - inner
                if stack:
                    stack[-1] += elapsed

        self._wrappers[id(wrapper)] = (wrapper, fn)
        return wrapper

    def _stack(self) -> "list[float]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def metrics(self) -> "dict[str, float]":
        """``<label>.calls``/``<label>.self_s`` for every layer, plus counts."""
        out: "dict[str, float]" = {}
        for label in LABELS:
            out[f"{label}.calls"] = self.calls.get(label, 0)
            out[f"{label}.self_s"] = round(self.self_s.get(label, 0.0), 6)
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        return out

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "LayerClock":
        """Wrap every target; returns self."""
        for name in _PRELOAD:
            importlib.import_module(name)
        for module_name, attr, label in TARGETS:
            module = importlib.import_module(module_name)
            label_of = functools.partial(_constant, label)
            if "." in attr:
                cls_name, method = attr.split(".")
                self._wrap_method(getattr(module, cls_name), method, label_of)
            else:
                self._wrap_function(module, attr, label_of)

        from repro.measure.runner import CampaignRunner
        from repro.measure.supervisor import SupervisedCampaignRunner
        from repro.net.network import Network
        from repro.service.store import JobStore

        def runner_label(args, kwargs):
            label = f"measure.runner.{_stage_of(args, kwargs)}"
            jobs = args[1] if len(args) > 1 else kwargs["jobs"]
            self.counts[f"{label}.jobs"] += len(jobs)
            return label

        self._wrap_method(CampaignRunner, "run", runner_label)
        self._wrap_method(
            SupervisedCampaignRunner, "run",
            lambda args, kwargs: f"measure.supervisor.{_stage_of(args, kwargs)}",
        )
        # Only cache misses are timed: a hit is a dict lookup, and the
        # miss count is the number of shortest-path trees computed.
        self._wrap_method(
            Network, "_sssp",
            lambda args, kwargs: None if args[1] in args[0]._sssp_cache else "net.sssp",
        )
        self._wrap_method(
            JobStore, "open",
            lambda args, kwargs: "service.store.open_readonly" if kwargs.get("readonly") else None,
        )
        return self

    def _wrap_method(self, cls, name: str, label_of) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.timed(label_of, raw.__func__))
        else:
            replacement = self.timed(label_of, raw)
        self._patches.append((cls, name, raw))
        setattr(cls, name, replacement)

    def _wrap_function(self, home, name: str, label_of) -> None:
        original = getattr(home, name)
        wrapper = self.timed(label_of, original)
        for module in _repro_modules():
            if module.__dict__.get(name) is original:
                self._patches.append((module, name, original))
                setattr(module, name, wrapper)

    def uninstall(self) -> None:
        """Restore every original, including copies imported after install."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        for module in _repro_modules():
            for name, value in list(module.__dict__.items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])


def _constant(label: str, args, kwargs) -> str:
    return label


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
