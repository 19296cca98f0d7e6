"""The bias-lab runner: one seeded scenario, four measurements.

:class:`BiasLab` runs a small seeded traceroute campaign over the
simulated internet (optionally under a policy route model), then turns
the same corpus four ways:

1. infers an IP→CO mapping and scores **species estimators** against
   the generator's ground-truth CO and link counts;
2. runs the **VP-placement optimizer** and its random baseline;
3. replays the corpus through the **streaming** engine and checks
   digest parity against the batch stages;
4. perturbs one rDNS record and confirms the **epoch change detector**
   reports exactly that move.

Everything is seeded and span/metric-instrumented; the outcome is the
validated ``bias-report`` artifact (:mod:`repro.bias.report`), which CI
gates on.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.alias.resolve import AliasSets
from repro.bias.incremental import (
    EpochChangeDetector,
    IncrementalCoGraph,
    StreamSnapshot,
    region_digest,
)
from repro.bias.placement import PlacementResult, VpPlacementOptimizer
from repro.bias.routemodel import build_route_model
from repro.bias.species import SpeciesEstimate, estimate_corpus
from repro.corpus.columnar import TraceCorpus
from repro.errors import MeasurementError, TopologyError
from repro.infer.adjacency import AdjacencyExtractor
from repro.infer.ip2co import Ip2CoMapper
from repro.infer.refine import RegionRefiner
from repro.measure.traceroute import Tracerouter
from repro.net.router import _stable_hash
from repro.obs import MetricsRegistry, Tracer
from repro.rdns.regexes import HostnameParser
from repro.topology.isp import (
    regional_co_addresses,
    slash24_targets_by_region,
    split_vps,
)


@dataclass
class SpeciesReport:
    """One species class's estimate next to its ground truth."""

    estimate: SpeciesEstimate
    truth: int

    @property
    def relative_error(self) -> float:
        """|chao1 − truth| / truth (0.0 when truth is empty)."""
        if not self.truth:
            return 0.0
        return abs(self.estimate.chao1 - self.truth) / self.truth

    def as_dict(self) -> dict:
        payload = self.estimate.as_dict()
        payload["truth"] = self.truth
        payload["relative_error"] = round(self.relative_error, 6)
        return payload


@dataclass
class StreamReport:
    """Streaming-vs-batch parity plus the epoch-detector outcome."""

    traces: int
    digest: str
    parity: bool
    ingest_seconds: float
    batch_seconds: float
    epoch_changes: int

    def as_dict(self) -> dict:
        return {
            "traces": self.traces,
            "digest": self.digest,
            "parity": self.parity,
            "ingest_seconds": round(self.ingest_seconds, 6),
            "batch_seconds": round(self.batch_seconds, 6),
            "epoch_changes": self.epoch_changes,
        }


@dataclass
class BiasLabResult:
    """Everything one lab run measured."""

    isp: str
    seed: int
    route_model: str
    vp_count: int
    targets: int
    traces: "list" = field(default_factory=list)
    co_species: "SpeciesReport | None" = None
    link_species: "SpeciesReport | None" = None
    placement: "PlacementResult | None" = None
    stream: "StreamReport | None" = None
    snapshot: "StreamSnapshot | None" = None


class BiasLab:
    """Runs the seeded bias-lab scenario end to end."""

    def __init__(
        self,
        internet,
        isp: str = "comcast",
        vp_count: int = 6,
        targets_per_region: int = 24,
        rdns_fraction: float = 0.15,
        placement_k: int = 4,
        seed: int = 0,
        route_model: str = "spf",
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.internet = internet
        self.isp_name = isp
        self.isp = getattr(internet, isp, None)
        if self.isp is None:
            raise TopologyError(f"internet has no ISP named {isp!r}")
        if targets_per_region < 1 or placement_k < 1:
            raise MeasurementError(f"targets_per_region and placement_k must be at least 1, got "
                                   f"{targets_per_region} and {placement_k}")
        if not 0.0 <= rdns_fraction <= 1.0:
            raise MeasurementError(f"rdns_fraction must be in [0, 1], got {rdns_fraction}")
        self.vp_count = vp_count
        self.targets_per_region = targets_per_region
        self.rdns_fraction = rdns_fraction
        self.placement_k = placement_k
        self.seed = seed
        self.route_model_name = route_model
        self.route_model = build_route_model(internet, route_model)
        self.obs = tracer or Tracer(seed=seed)
        self.metrics = metrics or MetricsRegistry()
        self.parser = HostnameParser()
        self.vps = list(internet.build_standard_vps())
        external = len(split_vps(self.isp, self.vps)[0])
        if not 1 <= vp_count <= external:
            raise MeasurementError(f"vp_count {vp_count} is outside 1..{external}, the vantage points outside {isp}")

    # ------------------------------------------------------------------
    def _sample_targets(self, salt: str) -> "list[str]":
        """A seeded per-region sample of /24 probe targets.

        *salt* keys the RNG, so each VP draws its own independent slice
        of the announced /24 space (how real campaigns split a target
        list across probers).  The overlap structure this induces —
        each /24 covered by a Binomial(vps, m/256) number of VPs — is
        what gives the species estimators a meaningful singleton/
        doubleton spectrum to extrapolate from.
        """
        targets = []
        for region_name, region_targets in slash24_targets_by_region(
            self.isp
        ).items():
            rng = random.Random(f"bias-lab|{self.seed}|{salt}|{region_name}")
            if len(region_targets) > self.targets_per_region:
                region_targets = rng.sample(
                    region_targets, self.targets_per_region
                )
            targets.extend(region_targets)
        return targets

    def _sample_rdns_targets(self, salt: str) -> "list[str]":
        """A seeded per-VP sample of rDNS-known infrastructure targets.

        Probes to unused customer addresses stop replying one hop short
        of the edge router (the customer side never answers), so the
        /24 sweep alone can never observe most edge COs — exactly the
        regime the paper's pipeline escapes with its rDNS-derived
        target sweep.  Each VP draws ``rdns_fraction`` of the snapshot
        addresses whose name parses as a regional CO of this ISP.
        """
        candidates = sorted(regional_co_addresses(
            self.isp, self.internet.network.rdns, self.parser
        ))
        count = int(len(candidates) * self.rdns_fraction)
        if count >= len(candidates):
            return candidates
        rng = random.Random(f"bias-lab-rdns|{self.seed}|{salt}")
        return rng.sample(candidates, count)

    def _collect(self) -> "tuple[list, int]":
        """The seeded campaign: N external VPs, each probing its own
        per-region target sample.  Returns (traces, distinct targets).

        The lab's route model is swapped in around this campaign alone,
        so the placement section scores forwarding paths under the
        network's own routing.
        """
        probers = split_vps(self.isp, self.vps)[0][: self.vp_count]
        tracer = Tracerouter(self.internet.network, attempts=1)
        network = self.internet.network
        saved_model = network.route_model
        network.route_model = self.route_model
        traces = []
        distinct: "set[str]" = set()
        try:
            for vp in probers:
                vp_targets = self._sample_targets(vp.name)
                vp_targets += self._sample_rdns_targets(vp.name)
                for address in vp_targets:
                    distinct.add(address)
                    # Mask to a signed 64-bit range: flow ids land in the
                    # corpus's int64 flow_id column.
                    flow = _stable_hash("bias-lab", vp.name, address)
                    traces.append(tracer.trace(
                        vp.host, address,
                        flow_id=flow & 0x7FFFFFFFFFFFFFFF,
                        src_address=vp.src_address,
                    ))
        finally:
            network.route_model = saved_model
        tracer.publish_metrics(self.metrics, prefix="bias.tracer.")
        return traces, len(distinct)

    # ------------------------------------------------------------------
    def run(self) -> BiasLabResult:
        result = BiasLabResult(
            isp=self.isp_name, seed=self.seed,
            route_model=self.route_model_name,
            vp_count=self.vp_count, targets=0,
        )
        with self.obs.span("bias.lab", isp=self.isp_name, seed=self.seed,
                           route_model=self.route_model_name):
            with self.obs.span("bias.corpus") as span:
                traces, distinct_targets = self._collect()
                result.targets = distinct_targets
                span.attributes["targets"] = distinct_targets
                span.attributes["traces"] = len(traces)
            result.traces = traces
            rdns = self.internet.network.rdns
            mapper = Ip2CoMapper(rdns, self.isp_name, parser=self.parser)
            mapping = mapper.build(traces, AliasSets([]))

            with self.obs.span("bias.species") as span:
                corpus = TraceCorpus.from_traces(traces)
                co_est, link_est = estimate_corpus(corpus, mapping)
                co_truth = sum(
                    len(region.cos) for region in self.isp.regions.values()
                )
                link_truth = sum(
                    region.edge_count()
                    for region in self.isp.regions.values()
                )
                result.co_species = SpeciesReport(co_est, co_truth)
                result.link_species = SpeciesReport(link_est, link_truth)
                span.attributes["co_observed"] = co_est.observed
                span.attributes["link_observed"] = link_est.observed
                self.metrics.set_gauge("bias.species.co_chao1", co_est.chao1)
                self.metrics.set_gauge(
                    "bias.species.link_chao1", link_est.chao1
                )

            with self.obs.span("bias.placement", k=self.placement_k) as span:
                optimizer = VpPlacementOptimizer(
                    self.internet, self.isp, self.vps,
                    targets_per_region=self.targets_per_region,
                    seed=self.seed,
                )
                result.placement = optimizer.optimize(self.placement_k)
                span.attributes["edge_recall"] = result.placement.edge_recall
                self.metrics.set_gauge(
                    "bias.placement.edge_recall", result.placement.edge_recall
                )
                self.metrics.set_gauge(
                    "bias.placement.random_recall",
                    result.placement.random_recall,
                )

            with self.obs.span("bias.stream", traces=len(traces)):
                result.stream, result.snapshot = self._stream_section(
                    traces, mapping
                )
                self.metrics.set_gauge(
                    "bias.stream.parity", int(result.stream.parity)
                )
                self.metrics.set_gauge(
                    "bias.stream.traces", result.stream.traces
                )
        return result

    # ------------------------------------------------------------------
    def _stream_section(self, traces, mapping):
        """Streaming replay + batch oracle + the epoch-detector drill."""
        rdns = self.internet.network.rdns
        started = time.perf_counter()
        graph = IncrementalCoGraph(rdns, self.isp_name, parser=self.parser)
        for trace in traces:
            graph.ingest(trace)
        snapshot = graph.snapshot()
        ingest_seconds = time.perf_counter() - started

        started = time.perf_counter()
        extractor = AdjacencyExtractor(
            snapshot.mapping, rdns, self.isp_name, parser=self.parser
        )
        adjacencies = extractor.extract(traces)
        refiner = RegionRefiner()
        batch_regions = {
            name: refiner.refine(name, adjacencies.per_region[name])
            for name in adjacencies.regions()
        }
        batch_seconds = time.perf_counter() - started
        parity = snapshot.digest == region_digest(batch_regions)

        # Epoch drill: move one mapped address's PTR to another CO's
        # hostname, confirm the detector reports exactly that address,
        # then restore the record.
        epoch_changes = 0
        mapped = [a for a in sorted(mapping.mapping)
                  if rdns.lookup(a) is not None]
        if len(mapped) >= 2:
            moved = mapped[0]
            donor = next(
                (a for a in mapped[1:]
                 if mapping.mapping[a] != mapping.mapping[moved]),
                None,
            )
            if donor is not None:
                detector = EpochChangeDetector(
                    rdns, self.isp_name, parser=self.parser
                )
                detector.watch(mapped)
                original = rdns.lookup(moved)
                rdns.set(moved, rdns.lookup(donor))
                epoch_changes = len(detector.poll())
                rdns.set(moved, original)

        return StreamReport(
            traces=len(traces),
            digest=snapshot.digest,
            parity=parity,
            ingest_seconds=ingest_seconds,
            batch_seconds=batch_seconds,
            epoch_changes=epoch_changes,
        ), snapshot
