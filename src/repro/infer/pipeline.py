"""The end-to-end cable inference pipeline (§5).

Phase 1 (build router-topology observations):

1. traceroute to one address in every /24 of each regional network, to
   expose at least one router per EdgeCO;
2. traceroute to every address whose rDNS matches the ISP's regexes
   (harvested from the Rapid7-style snapshot), which finds the CO
   interconnections the /24 sweep misses;
3. traceroute to every intermediate address observed, exposing MPLS
   tunnel entry/exit pairs (the Charter false-edge source);
4. alias resolution (Mercator + MIDAR) over the rDNS-matched and
   observed addresses.

Phase 2 (build CO-topology graphs): IP→CO mapping (App. B.1), adjacency
extraction/pruning (App. B.2), per-region refinement (App. B.3), entry
inference (§5.2.5), and aggregation-type classification (Table 1).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.alias.resolve import AliasResolver, AliasSets
from repro.errors import MeasurementError
from repro.faults import FaultInjector, FaultPlan
from repro.infer.adjacency import AdjacencyExtractor, RegionAdjacencies
from repro.infer.aggtype import classify_aggregation
from repro.infer.entries import EntryInferrer, EntryPoint
from repro.infer.ip2co import Ip2CoMapper, Ip2CoMapping
from repro.infer.refine import RefinedRegion, RegionRefiner
from repro.measure.runner import CampaignHealth, CampaignRunner
from repro.measure.traceroute import TraceResult, Tracerouter
from repro.measure.vantage import VantagePoint
from repro.net.network import Network
from repro.obs import MetricsRegistry, Tracer
from repro.perf import InferenceCache
from repro.rdns.regexes import HostnameParser
from repro.topology.isp import (
    regional_co_addresses,
    slash24_targets_by_region,
    split_vps,
)
from repro.validate.invariants import InvariantGuard
from repro.validate.quarantine import QuarantineReport

if TYPE_CHECKING:  # pragma: no cover - numpy loads only for binary runs
    from repro.corpus import TraceCorpus


#: Re-export under the historical name used across examples/benchmarks.
InferredRegion = RefinedRegion

#: Inside-the-ISP VPs kept in the fleet, spread evenly over those given.
MAX_INTERNAL_VPS = 4


@dataclass
class CableInferenceResult:
    """Everything the §5 analysis consumes."""

    isp: str
    regions: "dict[str, RefinedRegion]" = field(default_factory=dict)
    entries: "list[EntryPoint]" = field(default_factory=list)
    mapping: "Ip2CoMapping | None" = None
    adjacencies: "RegionAdjacencies | None" = None
    aliases: "AliasSets | None" = None
    traces: "list[TraceResult]" = field(default_factory=list)
    followup_traces: "list[TraceResult]" = field(default_factory=list)
    #: The columnar lifts of both corpora; None unless the campaign ran
    #: with ``corpus_format="binary"``.
    corpus: "TraceCorpus | None" = None
    followup_corpus: "TraceCorpus | None" = None
    #: Campaign cost/loss accounting; None only for hand-built results.
    health: "CampaignHealth | None" = None
    #: Diverted conflicting observations; None when validation is off.
    quarantine: "QuarantineReport | None" = None

    def aggregation_types(self) -> "dict[str, str]":
        return {
            name: classify_aggregation(region)
            for name, region in sorted(self.regions.items())
        }


class CableInferencePipeline:
    """Drives the full two-phase methodology against one cable ISP."""

    def __init__(
        self,
        network: Network,
        isp,
        vps: "list[VantagePoint]",
        sweep_vps: int = 12,
        attempts: int = 1,
        faults: "FaultPlan | None" = None,
        checkpoint_path=None,
        resume: bool = False,
        min_vps: int = 1,
        failover: bool = True,
        stop_after: "int | None" = None,
        validate: str = "off",
        workers: int = 0,
        worker_spec=None,
        pace_ms: float = 0.0,
        trace_seed: int = 0,
        corpus_format: str = "json",
    ) -> None:
        self.network = network
        self.isp = isp
        # Probe the target ISP mostly from outside it: a VP inside the
        # ISP traceroutes *outward*, reversing the downstream edge
        # orientation the region graphs rely on.  A small number of
        # inside VPs stays in the fleet (the paper's 47 VPs included
        # access-network homes) — they are what reveals direct
        # inter-region links that external paths never ride (§5.2.5).
        external, internal = split_vps(isp, vps)
        picked = []
        if internal:
            count = min(MAX_INTERNAL_VPS, len(internal))
            step = (len(internal) - 1) / max(1, count - 1)
            picked = [internal[round(i * step)] for i in range(count)]
        self.vps = external + picked
        if not external:
            raise MeasurementError(f"no vantage point outside {isp.name} to probe it from")
        if not 1 <= sweep_vps <= len(self.vps):
            raise MeasurementError(
                f"sweep_vps {sweep_vps} is outside 1..{len(self.vps)}, the "
                f"vantage points the pipeline probes {isp.name} from"
            )
        self.sweep_vps = sweep_vps
        self.parser = HostnameParser()
        self.tracer = Tracerouter(network, attempts=attempts, pace_ms=pace_ms)
        self.faults = faults
        self.checkpoint_path = checkpoint_path
        self.resume = resume
        self.min_vps = min_vps
        self.failover = failover
        self.stop_after = stop_after
        #: Validation policy: strict (fail-fast), lenient
        #: (drop-and-record), or off.  Constructing the guard up front
        #: rejects unknown policies before any probing happens.
        self.validate = validate
        self._guard = InvariantGuard(validate) if validate != "off" else None
        self.runner: "CampaignRunner | None" = None
        #: Worker processes: 0 = the serial CampaignRunner, N >= 1 = a
        #: SupervisedCampaignRunner with N spawned workers rebuilding
        #: their substrate — routing policy included — from
        #: ``worker_spec`` (byte-identical corpus, crash-tolerant).
        self.workers = workers
        self.worker_spec = worker_spec
        #: Observability: every run records a span tree (phases plus
        #: campaign stages) and a metrics registry.  Both are always on
        #: — recording is cheap and never alters inference output; the
        #: CLI decides whether to export them.  Span ids derive from
        #: ``trace_seed``, so equal-seed runs are diffable span-by-span.
        #: Corpus representation for phase 2: "json" keeps the
        #: historical object-graph path; "binary" lifts the collected
        #: traces into a columnar
        #: :class:`~repro.corpus.columnar.TraceCorpus` and runs the
        #: vectorized ip2co/adjacency paths.  Output is digest-
        #: identical either way: both paths feed the same stage core.
        #: Checkpoints do not depend on it.
        if corpus_format not in ("json", "binary"):
            raise MeasurementError(
                f"unknown corpus format {corpus_format!r} "
                "(expected 'json' or 'binary')"
            )
        self.corpus_format = corpus_format
        self.obs = Tracer(seed=trace_seed)
        self.metrics = MetricsRegistry()
        self._rdns_targets_memo: "tuple[int, list[str]] | None" = None

    # ------------------------------------------------------------------
    # Target selection
    # ------------------------------------------------------------------
    def slash24_targets(self) -> "list[str]":
        """One probe address per /24 of every announced region prefix."""
        return [
            target
            for targets in slash24_targets_by_region(self.isp).values()
            for target in targets
        ]

    def rdns_targets(self) -> "list[str]":
        """Every snapshot address whose name parses as an ISP regional CO.

        Memoized per rDNS epoch: the pipeline calls this three times per
        run (rdns sweep, alias seed set, mapper extras) over an
        unchanged snapshot, and each scan parses every hostname.
        """
        epoch = self.network.rdns.epoch
        if self._rdns_targets_memo is not None:
            memo_epoch, targets = self._rdns_targets_memo
            if memo_epoch == epoch:
                return list(targets)
        targets = regional_co_addresses(
            self.isp, self.network.rdns, self.parser
        )
        self._rdns_targets_memo = (epoch, list(targets))
        return targets

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _fault_context(self):
        """Attach the fault plan for the campaign.

        Restores whatever injector (usually None) was attached before,
        so a shared Network fixture is never left perturbed.  Routing
        follows whatever model the network carries: the route model is
        part of the substrate, not of the campaign.
        """
        previous = self.network.faults
        if self.faults is not None and self.faults.active:
            self.network.attach_faults(FaultInjector(self.faults))
        try:
            yield
        finally:
            self.network.attach_faults(previous)

    def _make_runner(self) -> CampaignRunner:
        """Build (or resume) the campaign runner shared by all sweeps."""
        options = {}
        if self.workers and self._guard is not None:
            options["quarantine"] = self._guard.report
        return CampaignRunner.open(
            self.tracer, self.vps, self.checkpoint_path, resume=self.resume,
            workers=self.workers, worker_spec=self.worker_spec,
            min_vps=self.min_vps, failover=self.failover,
            stop_after=self.stop_after, obs=self.obs, metrics=self.metrics,
            **options,
        )

    def collect_traces(self) -> "tuple[list[TraceResult], list[TraceResult]]":
        """Steps 1–3: the main corpus plus the MPLS follow-up corpus.

        Each step is a named :class:`CampaignRunner` stage, so a killed
        campaign resumes from the last checkpoint rather than hour zero.
        Job order matches the historical nested loops exactly.
        """
        if self.runner is None:
            self.runner = self._make_runner()
        runner = self.runner
        sweep_fleet = self.vps[: self.sweep_vps]
        slash24 = self.slash24_targets()
        traces = runner.run(
            [(vp, target) for vp in sweep_fleet for target in slash24],
            stage="slash24",
        )
        rdns = self.rdns_targets()
        traces = traces + runner.run(
            [(vp, target) for vp in self.vps for target in rdns],
            stage="rdns",
        )
        # Step 3: target every observed intermediate address (the DPR
        # probes that expose MPLS tunnels, §5.1 / App. B.2).
        intermediates: "set[str]" = set()
        for trace in traces:
            addresses = trace.responsive_addresses()
            intermediates.update(addresses[:-1] if trace.completed else addresses)
        ordered = sorted(intermediates)
        followups = runner.run(
            [
                (self.vps[index % len(self.vps)], target)
                for index, target in enumerate(ordered)
            ],
            stage="followup",
        )
        return traces, followups

    def resolve_aliases(self, traces: "list[TraceResult]") -> AliasSets:
        """Step 4: Mercator + MIDAR over rDNS-matched and observed addresses.

        Runs from the first *surviving* vantage point; a fully dead
        fleet degrades to an empty alias set rather than raising.
        """
        addresses = set(self.rdns_targets())
        for trace in traces:
            addresses.update(trace.responsive_addresses())
        resolver = AliasResolver(
            self.network, p2p_prefixlen=self.isp.p2p_prefixlen,
            attempts=self.tracer.attempts,
        )
        vp = self.runner.fleet.first_alive()
        if vp is None:
            self.runner.health.degraded = True
            return AliasSets([])
        return resolver.resolve(
            vp.host, sorted(addresses), src_address=vp.src_address,
            include_p2p_peers=True,
        )

    # ------------------------------------------------------------------
    # Phase 2 + orchestration
    # ------------------------------------------------------------------
    def _publish_metrics(self, guard, regions, traces, followups) -> None:
        """Final registry refresh at the end of a run.

        The campaign runner publishes at every health sync already;
        this pass catches post-campaign mutations (degradation flagged
        during alias resolution, quarantine counts, the final region
        inventory) so the exported snapshot is self-consistent.
        """
        metrics = self.metrics
        self.tracer.publish_metrics(metrics)
        self.runner.health.publish_metrics(metrics)
        if self.runner.injector is not None:
            self.runner.injector.stats.publish_metrics(metrics)
        if guard is not None:
            guard.publish_metrics(metrics)
        metrics.set_gauge("pipeline.traces", len(traces))
        metrics.set_gauge("pipeline.followup_traces", len(followups))
        metrics.set_gauge("pipeline.regions", len(regions))
        metrics.set_gauge("pipeline.vantage_points", len(self.vps))

    def run(self) -> CableInferenceResult:
        """The full campaign: collect, resolve, map, prune, refine, enter.

        Phase 2 runs inside the fault context too: stale-rDNS injection
        (``FaultPlan.stale_rdns``) perturbs the *lookup* path the
        mapper and extractor read, exactly where real stale PTR records
        live.  Fault-free plans are unaffected — no phase-2 code path
        consults any other injector hook.
        """
        guard = self._guard
        obs = self.obs
        with self._fault_context():
            with obs.span("collect") as span:
                traces, followups = self.collect_traces()
                span.attributes["traces"] = len(traces)
                span.attributes["followups"] = len(followups)
            with obs.span("aliases"):
                aliases = self.resolve_aliases(traces)
            corpus = followup_corpus = None
            if self.corpus_format == "binary":
                from repro.corpus import TraceCorpus

                # Columnar lift: one pass over the collected objects,
                # after which phase 2's hot loops run as numpy
                # reductions over the corpus columns.
                with obs.span("corpus") as span:
                    corpus = TraceCorpus.from_traces(traces)
                    followup_corpus = TraceCorpus.from_traces(followups)
                    span.attributes["traces"] = len(corpus)
                    span.attributes["followups"] = len(followup_corpus)
                    span.attributes["hops"] = (
                        corpus.hop_count + followup_corpus.hop_count
                    )
                    span.attributes["addresses"] = len(corpus.addresses)
                self.metrics.inc(
                    "corpus.traces", len(corpus) + len(followup_corpus)
                )
                self.metrics.inc(
                    "corpus.hops",
                    corpus.hop_count + followup_corpus.hop_count,
                )
                self.metrics.set_gauge(
                    "corpus.interned_addresses", len(corpus.addresses)
                )
            # The cache is built *inside* the fault context so its
            # generation check captures the campaign's injector; it is
            # shared by every phase-2 stage, which all re-lookup and
            # re-parse the same few thousand addresses.  It reports
            # into the run's registry (``cache.*`` counters).
            cache = InferenceCache(self.network.rdns, self.parser,
                                   metrics=self.metrics)
            mapper = Ip2CoMapper(
                self.network.rdns, self.isp.name,
                p2p_prefixlen=self.isp.p2p_prefixlen, parser=self.parser,
                cache=cache,
            )
            with obs.span("ip2co") as span:
                extras = set(self.rdns_targets())
                if corpus is not None:
                    mapping = mapper.build_columnar(
                        corpus, aliases, extra_addresses=extras
                    )
                else:
                    mapping = mapper.build(
                        traces, aliases, extra_addresses=extras
                    )
                span.attributes["mapped_addresses"] = len(mapping)
            if guard is not None:
                guard.check_mapping(mapping, aliases)
            extractor = AdjacencyExtractor(
                mapping, self.network.rdns, self.isp.name, parser=self.parser,
                cache=cache,
            )
            with obs.span("adjacency") as span:
                if corpus is not None:
                    adjacencies = extractor.extract_columnar(
                        corpus, followup_corpus
                    )
                else:
                    adjacencies = extractor.extract(
                        traces, followup_traces=followups
                    )
                span.attributes["regions"] = len(adjacencies.per_region)
        if guard is not None:
            guard.check_adjacencies(adjacencies)

        refiner = RegionRefiner(cache=cache)
        with obs.span("refine") as span:
            regions = {
                region_name: refiner.refine(region_name, counter)
                for region_name, counter in adjacencies.per_region.items()
            }
            span.attributes["regions"] = len(regions)
        if guard is not None:
            for region in regions.values():
                guard.check_region(region)
        inferrer = EntryInferrer(mapping)
        with obs.span("entries") as span:
            entries = inferrer.backbone_entries(adjacencies)
            entries += inferrer.inter_region_entries(traces)
            span.attributes["entries"] = len(entries)

        self._publish_metrics(guard, regions, traces, followups)
        quarantine = guard.report if guard is not None else None
        runner_quarantine = getattr(self.runner, "quarantine", None)
        if quarantine is None and runner_quarantine:
            # Poison-shard records exist even with validation off; a
            # result must never hide quarantined coverage loss.
            quarantine = runner_quarantine
        return CableInferenceResult(
            isp=self.isp.name,
            regions=regions,
            entries=entries,
            mapping=mapping,
            adjacencies=adjacencies,
            aliases=aliases,
            traces=traces,
            followup_traces=followups,
            corpus=corpus,
            followup_corpus=followup_corpus,
            health=self.runner.health,
            quarantine=quarantine,
        )
