"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's campaigns:

* ``build``       — build the simulated internet and print its inventory;
* ``map-cable``   — run the §5 pipeline against a cable ISP;
* ``map-att``     — run the §6 pipeline against a telco region;
* ``ship``        — run the §7 ShipTraceroute campaign and IPv6 analysis;
* ``energy``      — print the Fig 14 energy comparison;
* ``resilience``  — single-failure sweeps over inferred region graphs;
* ``bias``        — the measurement-bias lab (``report`` / ``place`` /
  ``stream``): species-style coverage estimation, VP-placement
  optimization against ground truth, and streaming incremental
  inference over finished service corpora;
* ``service``     — the resilient campaign service (``run`` / ``submit``
  / ``status`` / ``drain``): a crash-safe job queue over the mapping
  pipelines with leases, retries, backpressure, and graceful drain.

Every command accepts ``--seed``; exporting commands accept ``--json-dir``
(and ``--dot-dir`` for cable regions) to write artifacts.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
from collections import Counter


def _build_internet(args, **kwargs):
    from repro.topology.internet import SimulatedInternet

    return SimulatedInternet(seed=args.seed, **kwargs)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_build(args) -> int:
    """Build the simulated internet and print its inventory."""
    internet = _build_internet(args)
    network = internet.network
    print(f"routers: {len(network.routers)}")
    print(f"links: {len(network.links)}")
    print(f"ptr records: {len(network.rdns)}")
    for isp in (internet.comcast, internet.charter, internet.att):
        total_cos = sum(len(r.cos) for r in isp.regions.values())
        print(f"{isp.name}: {len(isp.regions)} regions, {total_cos} COs")
    for name, carrier in sorted(internet.mobile_carriers.items()):
        print(f"{name}: {len(carrier.regions)} mobile regions")
    return 0


def _export_corpus(args, result) -> None:
    """Write the collected corpora to ``--corpus-out`` (+ ``.followup``).

    Binary mode writes the columnar ``.npz`` containers the campaign
    already lifted for inference; JSON mode writes the validated
    ``trace-corpus`` artifact straight from the traces, without numpy.
    Both load back through the schema layer.
    """
    from repro.io.atomic import atomic_write_text

    out = pathlib.Path(args.corpus_out)
    followup_out = out.with_name(f"{out.stem}.followup{out.suffix}")
    if args.corpus_format == "binary":
        from repro.corpus import save_corpus

        corpora = ((out, result.corpus), (followup_out, result.followup_corpus))
        for path, corpus in corpora:
            save_corpus(path, corpus)
            print(f"wrote {len(corpus)}-trace corpus to {path}")
        return
    from repro.io.checkpoint import traces_to_corpus_json

    corpora = ((out, result.traces), (followup_out, result.followup_traces))
    for path, traces in corpora:
        atomic_write_text(path, traces_to_corpus_json(traces) + "\n")
        print(f"wrote {len(traces)}-trace corpus to {path}")


def cmd_map_cable(args) -> int:
    """Run the §5 pipeline against a cable ISP, optionally exporting."""
    from repro.errors import MeasurementError
    from repro.faults import FaultPlan
    from repro.infer.pipeline import CableInferencePipeline
    from repro.io.atomic import atomic_write_text
    from repro.io.export import region_to_dot, region_to_json
    from repro.measure.substrates import cable_campaign
    from repro.validate.quarantine import quarantine_report_to_json

    checkpoints = {pathlib.Path(path).resolve() for path in (args.checkpoint, args.resume) if path}
    if len(checkpoints) > 1:
        raise MeasurementError(f"--checkpoint {args.checkpoint} and --resume {args.resume} name two files; "
                               "a resumed campaign saves to the file it resumes")
    worker_chaos = args.worker_crash or args.worker_stall or args.worker_slow
    faults = None
    if args.faults or args.vp_dropouts or args.stale_rdns or worker_chaos:
        faults = FaultPlan(
            seed=args.fault_seed,
            probe_loss=args.faults,
            vp_dropout=args.vp_dropouts,
            vp_dropout_after=args.vp_dropout_after,
            stale_rdns=args.stale_rdns,
            worker_crash=args.worker_crash,
            worker_stall=args.worker_stall,
            worker_slow=args.worker_slow,
        )
    internet, fleet, worker_spec = cable_campaign(
        seed=args.seed, route_model=args.route_model
    )
    isp = getattr(internet, args.isp)
    pipeline = CableInferencePipeline(
        internet.network, isp, fleet, sweep_vps=args.sweep_vps,
        attempts=args.attempts, faults=faults,
        checkpoint_path=args.resume or args.checkpoint,
        resume=bool(args.resume), min_vps=args.min_vps,
        validate=args.validate, workers=args.workers,
        worker_spec=worker_spec, pace_ms=args.pace_ms,
        trace_seed=args.seed, corpus_format=args.corpus_format,
    )
    result = pipeline.run()
    if args.corpus_out:
        _export_corpus(args, result)
    if args.profile:
        from repro.obs import phase_report

        for line in phase_report(pipeline.obs):
            print(line)
    if args.trace_out:
        path = atomic_write_text(pathlib.Path(args.trace_out),
                                 pipeline.obs.to_json() + "\n")
        print(f"wrote span trace to {path}")
    if args.metrics_out:
        path = atomic_write_text(pathlib.Path(args.metrics_out),
                                 pipeline.metrics.to_json() + "\n")
        print(f"wrote metrics snapshot to {path}")
    if result.health is not None and (
        faults is not None or args.resume or args.attempts > 1
        or args.validate != "off" or args.workers
    ):
        line = f"campaign health: {result.health.summary()}"
        if result.quarantine is not None:
            line += f"; {result.quarantine.summary()}"
        print(line)
    types = Counter(result.aggregation_types().values())
    print(f"{args.isp}: {len(result.regions)} regions inferred "
          f"({types['single']} single / {types['two']} two / "
          f"{types['multi']} multi-level)")
    for name in sorted(result.regions):
        region = result.regions[name]
        print(f"  {name}: {region.graph.number_of_nodes()} COs, "
              f"{len(region.agg_cos)} AggCOs")
    if args.json_dir:
        from repro.obs import build_run_manifest, write_run_manifest

        directory = pathlib.Path(args.json_dir)
        artifacts = {}
        for name, region in result.regions.items():
            text = region_to_json(region)
            artifacts[f"{args.isp}-{name}.json"] = text
            atomic_write_text(directory / f"{args.isp}-{name}.json", text)
        print(f"wrote {len(result.regions)} JSON files to {directory}")
        if result.quarantine is not None and result.quarantine:
            text = quarantine_report_to_json(result.quarantine)
            artifacts[f"{args.isp}-quarantine.json"] = text
            path = atomic_write_text(
                directory / f"{args.isp}-quarantine.json", text
            )
            print(f"wrote quarantine report to {path}")
        if result.health is not None:
            from repro.io.export import campaign_health_to_json

            text = campaign_health_to_json(result.health)
            artifacts[f"{args.isp}-health.json"] = text
            path = atomic_write_text(
                directory / f"{args.isp}-health.json", text
            )
            print(f"wrote campaign health to {path}")
        manifest = build_run_manifest(
            command="map-cable",
            seed=args.seed,
            parameters={
                "isp": args.isp,
                "sweep_vps": args.sweep_vps,
                "attempts": args.attempts,
                "workers": args.workers,
                "validate": args.validate,
                "route_model": args.route_model,
            },
            tracer=pipeline.obs,
            metrics=pipeline.metrics,
            fault_plan=faults,
            artifacts=artifacts,
        )
        path = write_run_manifest(
            directory / f"{args.isp}-manifest.json", manifest
        )
        print(f"wrote run manifest to {path}")
    if args.dot_dir:
        directory = pathlib.Path(args.dot_dir)
        for name, region in result.regions.items():
            atomic_write_text(
                directory / f"{args.isp}-{name}.dot", region_to_dot(region)
            )
        print(f"wrote {len(result.regions)} DOT files to {directory}")
    return 0


def cmd_map_att(args) -> int:
    """Run the §6 pipeline against one telco region."""
    from repro.infer.att import AttInferencePipeline
    from repro.io.export import att_topology_to_json
    from repro.measure.wardriving import McTracerouteCampaign

    internet = _build_internet(args, include_cable=False, include_mobile=False)
    if args.region not in internet.att.regions:
        print(f"unknown region {args.region!r}; available: "
              f"{', '.join(sorted(internet.att.regions))}", file=sys.stderr)
        return 2
    internal = list(internet.telco_internal_vps())
    wardriving = McTracerouteCampaign(internet.network, internet.att,
                                      seed=args.seed)
    wardriving.place_hotspots(internet.att.regions[args.region], count=58)
    topology = AttInferencePipeline(internet.network, internal).run_region(
        args.region, extra_vps=wardriving.usable_vps(), dpr_stride=2
    )
    print(f"{args.region}: {len(topology.backbone_routers)} backbone + "
          f"{len(topology.agg_routers)} agg + "
          f"{len(topology.edge_routers)} edge routers; "
          f"{topology.backbone_co_count} BackboneCO(s), "
          f"{len(topology.edge_cos)} EdgeCOs")
    if args.json_dir:
        from repro.io.atomic import atomic_write_text

        path = atomic_write_text(
            pathlib.Path(args.json_dir) / f"att-{args.region}.json",
            att_topology_to_json(topology),
        )
        print(f"wrote {path}")
    return 0


def cmd_ship(args) -> int:
    """Run the §7 ShipTraceroute campaign and the IPv6 analysis."""
    from repro.infer.mobile_ipv6 import MobileIPv6Analyzer
    from repro.io.export import carrier_analysis_to_json
    from repro.measure.shiptraceroute import ShipTracerouteCampaign
    from repro.topology.geography import Geography
    from repro.topology.mobile import build_mobile_carriers

    geography = Geography()
    carriers = build_mobile_carriers(geography, seed=args.seed)
    campaign = ShipTracerouteCampaign(carriers, geography, seed=args.seed)
    results = campaign.run()
    analyzer = MobileIPv6Analyzer(campaign.celldb)
    for name, result in sorted(results.items()):
        analysis = analyzer.analyze(result)
        print(f"{name}: {result.succeeded}/{result.attempted} rounds "
              f"({result.success_rate:.0%}), {analysis.region_count} regions, "
              f"{analysis.topology_class}")
        if args.json_dir:
            from repro.io.atomic import atomic_write_text

            atomic_write_text(
                pathlib.Path(args.json_dir) / f"{name}.json",
                carrier_analysis_to_json(analysis),
            )
    return 0


def cmd_energy(args) -> int:
    """Print the Fig 14 energy comparison."""
    from repro.energy.model import PhoneEnergyModel

    model = PhoneEnergyModel()
    old = model.traceroute_round(args.targets, parallel=False,
                                 rng=random.Random(args.seed))
    new = model.traceroute_round(args.targets, parallel=True,
                                 rng=random.Random(args.seed))
    print(f"sequential (off-the-shelf): {old.total_mah:.1f} mAh per round")
    print(f"parallel (ShipTraceroute):  {new.total_mah:.1f} mAh per round")
    print(f"saving: {1 - new.total_mah / old.total_mah:.0%}")
    print(f"battery life at hourly rounds: "
          f"{model.battery_life_days(args.targets, parallel=True):.1f} days")
    return 0


def _load_region_artifacts(directory, validate):
    """Load every cable-region JSON in *directory*, schema-validated.

    Non-region artifacts (health, quarantine reports) sitting in the
    same export directory are skipped by kind; anything unparseable is
    a hard :class:`SchemaError` naming the file.  Under ``strict`` or
    ``lenient`` the refinement invariants are also checked — a
    schema-valid artifact can still be structurally corrupt.
    """
    import json as _json

    from repro.errors import SchemaError
    from repro.io.export import region_from_json
    from repro.validate.invariants import InvariantGuard

    guard = InvariantGuard(validate) if validate != "off" else None
    regions = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        text = path.read_text()
        try:
            try:
                kind = _json.loads(text).get("kind")
            except (_json.JSONDecodeError, AttributeError) as exc:
                raise SchemaError(f"$: not a JSON artifact: {exc}") from None
            if kind != "cable-region":
                continue
            region = region_from_json(text)
            if guard is not None:
                guard.check_region(region)
        except SchemaError as exc:
            raise SchemaError(f"{path.name}: {exc}") from None
        regions[region.name] = region
    return regions, guard


def cmd_resilience(args) -> int:
    """Sweep single-CO failures over inferred region graphs (§8)."""
    from repro.analysis.resilience import ResilienceAnalyzer

    if args.from_json:
        regions, guard = _load_region_artifacts(args.from_json, args.validate)
        if guard is not None and guard.report:
            print(f"validation: {guard.report.summary()}")
        label = f"{args.from_json} ({len(regions)} artifacts)"
    else:
        from repro.infer.pipeline import CableInferencePipeline
        from repro.measure.substrates import cable_campaign

        internet, fleet, _worker_spec = cable_campaign(seed=args.seed)
        isp = getattr(internet, args.isp)
        regions = CableInferencePipeline(
            internet.network, isp, fleet, sweep_vps=args.sweep_vps,
            validate=args.validate,
        ).run().regions
        label = args.isp
    print(f"{label}: worst single-CO failure per region")
    for name in sorted(regions):
        sweep = ResilienceAnalyzer(regions[name]).sweep()
        worst = sweep.worst_case
        spofs = sweep.single_points_of_failure()
        print(f"  {name}: worst {worst.disconnected_fraction:.0%} "
              f"({worst.failed_co}); {len(spofs)} SPOF(s)")
    return 0


def _spec_from_args(args) -> "object":
    from repro.service.spec import JobSpec, job_spec_from_json

    if args.spec:
        source = pathlib.Path(args.spec)
        return job_spec_from_json(source.read_text())
    faults = {}
    if args.faults:
        faults["probe_loss"] = args.faults
    if args.worker_crash:
        faults["worker_crash"] = args.worker_crash
    if args.worker_stall:
        faults["worker_stall"] = args.worker_stall
    chaos = {}
    if args.chaos_fail_attempts:
        chaos["fail_attempts"] = args.chaos_fail_attempts
    return JobSpec(
        pipeline=args.pipeline,
        seed=args.job_seed,
        fidelity=args.fidelity,
        allow_degraded=args.allow_degraded,
        workers=args.workers,
        targets=args.targets,
        hosts=args.hosts,
        isp=args.isp,
        sweep_vps=args.sweep_vps,
        faults=faults,
        chaos=chaos,
        corpus_format=args.corpus_format,
        name=args.name,
        priority=args.priority,
    )


def cmd_bias(args) -> int:
    """The measurement-bias lab (``report`` / ``place`` / ``stream``)."""
    internet = None
    if args.bias_command in ("report", "place"):
        internet = _build_internet(
            args, include_telco=False, include_mobile=False
        )
    from repro.bias import BiasLab, VpPlacementOptimizer, bias_report_to_json
    from repro.io.atomic import atomic_write_text

    if args.bias_command == "report":
        lab = BiasLab(
            internet, isp=args.isp, vp_count=args.vps,
            targets_per_region=args.targets_per_region,
            rdns_fraction=args.rdns_fraction, placement_k=args.k,
            seed=args.seed, route_model=args.route_model,
        )
        result = lab.run()
        text = bias_report_to_json(result)
        cos, links = result.co_species, result.link_species
        print(f"{args.isp} bias report (route model {args.route_model}, "
              f"{result.vp_count} VPs, {result.targets} targets)")
        print(f"  COs:   {cos.estimate.observed} observed, "
              f"chao1 {cos.estimate.chao1:.1f} vs truth {cos.truth} "
              f"(rel err {cos.relative_error:.1%})")
        print(f"  links: {links.estimate.observed} observed, "
              f"chao1 {links.estimate.chao1:.1f} vs truth {links.truth} "
              f"(rel err {links.relative_error:.1%})")
        placement = result.placement
        print(f"  placement k={placement.k}: edge recall "
              f"{placement.edge_recall:.1%} vs random "
              f"{placement.random_recall:.1%}; chosen: "
              f"{', '.join(placement.chosen)}")
        stream = result.stream
        print(f"  streaming: {stream.traces} traces, parity "
              f"{'OK' if stream.parity else 'BROKEN'}, "
              f"{stream.epoch_changes} epoch change(s) detected")
        if args.out:
            path = atomic_write_text(pathlib.Path(args.out), text + "\n")
            print(f"wrote bias report to {path}")
        if args.trace_out:
            path = atomic_write_text(pathlib.Path(args.trace_out),
                                     lab.obs.to_json() + "\n")
            print(f"wrote span trace to {path}")
        if args.metrics_out:
            path = atomic_write_text(pathlib.Path(args.metrics_out),
                                     lab.metrics.to_json() + "\n")
            print(f"wrote metrics snapshot to {path}")
        return 0 if stream.parity else 3
    if args.bias_command == "place":
        isp = getattr(internet, args.isp)
        optimizer = VpPlacementOptimizer(
            internet, isp, list(internet.build_standard_vps()),
            targets_per_region=args.targets_per_region, seed=args.seed,
        )
        placement = optimizer.optimize(args.k, restarts=args.restarts)
        baseline = optimizer.random_baseline(args.k)
        print(f"{args.isp} placement k={placement.k}: "
              f"{placement.covered_edges}/{placement.total_edges} edges "
              f"({placement.edge_recall:.1%}); random baseline "
              f"{baseline:.1%}")
        for name, gain in zip(placement.chosen, placement.marginal_gains):
            print(f"  {name}: +{gain} edges")
        return 0
    # stream: incremental inference over a service state directory.
    from repro.bias.incremental import IncrementalCoGraph, ingest_from_store
    from repro.rdns.regexes import HostnameParser

    internet = _build_internet(args, include_telco=False, include_mobile=False)
    graph = IncrementalCoGraph(
        internet.network.rdns, args.isp, parser=HostnameParser()
    )
    traces, cursor = ingest_from_store(
        graph, pathlib.Path(args.state_dir), after_seq=args.after_seq
    )
    snapshot = graph.snapshot()
    print(f"ingested {traces} trace(s) from {args.state_dir} "
          f"(cursor {args.after_seq} -> {cursor})")
    print(f"snapshot: {len(snapshot.regions)} region(s), "
          f"digest {snapshot.digest[:16]}")
    for name in sorted(snapshot.regions):
        region = snapshot.regions[name]
        print(f"  {name}: {region.graph.number_of_nodes()} COs, "
              f"{len(region.agg_cos)} AggCOs")
    return 0


def cmd_service(args) -> int:
    """The resilient campaign service front end."""
    from repro.io.atomic import atomic_write_text
    from repro.service.service import DRAIN_MARKER, CampaignService
    from repro.service.spec import job_id_for, job_spec_to_json
    from repro.service.store import JobStore

    state_dir = pathlib.Path(args.state_dir)
    if args.service_command == "run":
        service = CampaignService(
            state_dir,
            executor_id=args.executor_id,
            queue_limit=args.queue_limit,
            max_attempts=args.max_attempts,
            lease_s=args.lease_s,
            tick_s=args.tick_s,
            backoff_base_s=args.backoff_base_s,
            seed=args.seed,
        )
        executed = service.run(until_idle=args.until_idle,
                               max_jobs=args.max_jobs)
        jobs = service.store.jobs.values()
        done = sum(1 for r in jobs if r.state == "done")
        failed = sum(1 for r in jobs if r.state == "failed")
        print(f"service: {executed} attempt(s) executed; "
              f"{done} done, {failed} failed, "
              f"{sum(1 for r in jobs if not r.terminal)} live")
        return 0
    if args.service_command == "submit":
        spec = _spec_from_args(args)
        job_id = job_id_for(spec)
        inbox = state_dir / "inbox"
        inbox.mkdir(parents=True, exist_ok=True)
        # The spool write is atomic, so a concurrently running service
        # never ingests a half-written spec.
        atomic_write_text(inbox / f"{job_id}.json", job_spec_to_json(spec))
        print(f"submitted {job_id} ({spec.pipeline}, fidelity "
              f"{spec.fidelity}) to {inbox}")
        return 0
    if args.service_command == "serve":
        from repro.service.http import ServiceHTTPServer

        server = ServiceHTTPServer(state_dir, host=args.host, port=args.port)
        print(f"serving {state_dir} on http://{server.address} "
              "(read-only; Ctrl-C to stop)")
        server.serve_forever()
        return 0
    if args.service_command == "status":
        store = JobStore.open(state_dir, readonly=True)
        jobs = sorted(store.jobs.values(), key=lambda r: r.submitted_seq)
        states = Counter(record.state for record in jobs)
        summary = ", ".join(
            f"{states[state]} {state}" for state in
            ("queued", "running", "done", "failed") if states[state]
        ) or "empty"
        print(f"service state at {state_dir}: {summary}; "
              f"{len(store.rejected)} rejected")
        for record in jobs:
            lease = ""
            if record.lease is not None:
                lease = f" lease={record.lease['owner']}"
            failure = ""
            if record.failure is not None:
                failure = f" failure={record.failure['reason']!r}"
            print(f"  {record.job_id} {record.state:7s} "
                  f"{record.spec.pipeline} fidelity={record.fidelity} "
                  f"attempts={record.attempts}{lease}{failure}")
        return 0
    # drain: ask a running service to stop admitting and exit cleanly.
    state_dir.mkdir(parents=True, exist_ok=True)
    (state_dir / DRAIN_MARKER).touch()
    print(f"drain requested at {state_dir}")
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Inferring Regional Access Network "
                    "Topologies' (IMC 2021) on a simulated substrate.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("build", help="build the simulated internet")

    map_cable = sub.add_parser("map-cable", help="run the §5 cable pipeline")
    map_cable.add_argument("isp", choices=("comcast", "charter"))
    map_cable.add_argument("--sweep-vps", type=int, default=8)
    map_cable.add_argument("--json-dir")
    map_cable.add_argument("--dot-dir")
    map_cable.add_argument(
        "--attempts", type=int, default=1,
        help="per-hop probe attempts (scamper -q; default 1)")
    map_cable.add_argument(
        "--faults", type=float, default=0.0, metavar="RATE",
        help="inject this probe-loss rate (0..1)")
    map_cable.add_argument(
        "--vp-dropouts", type=int, default=0, metavar="N",
        help="inject N mid-campaign vantage point dropouts")
    map_cable.add_argument(
        "--vp-dropout-after", type=int, default=5000, metavar="PROBES",
        help="probes a doomed VP sends before dying (default 5000)")
    map_cable.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault plan (default 0)")
    map_cable.add_argument(
        "--checkpoint", metavar="PATH",
        help="log campaign progress to PATH, appending what is new "
             "at every save (replaces any file already there)")
    map_cable.add_argument(
        "--resume", metavar="PATH",
        help="resume a campaign from the checkpoint at PATH")
    map_cable.add_argument(
        "--min-vps", type=int, default=1,
        help="degrade (skip remaining jobs) below this many live VPs")
    map_cable.add_argument(
        "--validate", choices=("strict", "lenient", "off"), default="off",
        help="per-stage invariant checking: strict fails fast, lenient "
             "drops and quarantines conflicting records (default off)")
    map_cable.add_argument(
        "--stale-rdns", type=float, default=0.0, metavar="RATE",
        help="inject this rate of stale PTR lookups (0..1), the "
             "paper's conflicting-rDNS noise source")
    map_cable.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes probing the campaign: 0 probes "
             "in-process (default), N >= 1 spawns N supervised workers "
             "(crash-tolerant, byte-identical corpus)")
    map_cable.add_argument(
        "--pace-ms", type=float, default=0.0, metavar="MS",
        help="real inter-trace pacing, modelling probe RTT and ICMP "
             "rate limits; the latency-bound regime where --workers "
             "shows its speedup (default 0 = unpaced)")
    map_cable.add_argument(
        "--worker-crash", type=float, default=0.0, metavar="RATE",
        help="chaos: per-(shard, attempt) probability a worker is "
             "SIGKILLed mid-shard (0..1)")
    map_cable.add_argument(
        "--worker-stall", type=float, default=0.0, metavar="RATE",
        help="chaos: per-(shard, attempt) probability a worker stops "
             "heartbeating mid-shard (0..1)")
    map_cable.add_argument(
        "--worker-slow", type=float, default=0.0, metavar="RATE",
        help="chaos: per-(shard, attempt) probability a worker runs "
             "slow but completes (0..1)")
    map_cable.add_argument(
        "--profile", action="store_true",
        help="print per-phase wall-clock and peak-RSS accounting")
    map_cable.add_argument(
        "--trace-out", metavar="PATH",
        help="write the run's hierarchical span trace (JSON) to PATH")
    map_cable.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the run's metrics-registry snapshot (JSON) to PATH")
    map_cable.add_argument(
        "--corpus-format", choices=("json", "binary"), default="json",
        help="corpus representation: json keeps the object-graph "
             "inference path; binary runs the vectorized columnar path "
             "(digest-identical output; default json)")
    map_cable.add_argument(
        "--route-model", choices=("spf", "valley-free", "hot-potato"),
        default="spf",
        help="forwarding policy for the campaign: delay-weighted SPF "
             "(default), valley-free AS policy, or per-AS hot-potato "
             "early exit (see repro.bias.routemodel); recorded in the "
             "run manifest")
    map_cable.add_argument(
        "--corpus-out", metavar="PATH",
        help="export the collected trace corpus to PATH (validated "
             "trace-corpus JSON, or .npz when --corpus-format binary); "
             "the follow-up corpus lands next to it as *.followup")

    map_att = sub.add_parser("map-att", help="run the §6 telco pipeline")
    map_att.add_argument("region", nargs="?", default="sndgca")
    map_att.add_argument("--json-dir")

    ship = sub.add_parser("ship", help="run the §7 ShipTraceroute campaign")
    ship.add_argument("--json-dir")

    energy = sub.add_parser("energy", help="print the Fig 14 energy numbers")
    energy.add_argument("--targets", type=int, default=266)

    resilience = sub.add_parser(
        "resilience", help="single-failure sweeps over inferred regions"
    )
    resilience.add_argument("isp", nargs="?", default="comcast",
                            choices=("comcast", "charter"))
    resilience.add_argument("--sweep-vps", type=int, default=8)
    resilience.add_argument(
        "--from-json", metavar="DIR",
        help="analyze exported cable-region artifacts from DIR instead "
             "of re-running the measurement pipeline")
    resilience.add_argument(
        "--validate", choices=("strict", "lenient", "off"), default="off",
        help="invariant checking for loaded artifacts / the pipeline "
             "(default off; artifact schemas are always validated)")

    bias = sub.add_parser(
        "bias",
        help="measurement-bias lab: species coverage estimation, VP "
             "placement optimization, streaming incremental inference",
    )
    bsub = bias.add_subparsers(dest="bias_command", required=True)

    breport = bsub.add_parser(
        "report", help="run the full seeded lab and print/export the "
                       "validated bias-report artifact"
    )
    breport.add_argument("--isp", choices=("comcast", "charter"),
                         default="comcast")
    breport.add_argument("--route-model",
                         choices=("spf", "valley-free", "hot-potato"),
                         default="spf",
                         help="forwarding policy for the lab campaign "
                              "(default spf)")
    breport.add_argument("--vps", type=int, default=6,
                         help="external vantage points probing (default 6)")
    breport.add_argument("--targets-per-region", type=int, default=24,
                         help="/24 targets each VP samples per region "
                              "(default 24)")
    breport.add_argument("--rdns-fraction", type=float, default=0.15,
                         help="fraction of rDNS-known infrastructure "
                              "addresses each VP probes (default 0.15)")
    breport.add_argument("--k", type=int, default=4,
                         help="placement-optimizer budget (default 4)")
    breport.add_argument("--out", metavar="PATH",
                         help="write the validated bias-report JSON to PATH")
    breport.add_argument("--trace-out", metavar="PATH",
                         help="write the run's span trace (JSON) to PATH")
    breport.add_argument("--metrics-out", metavar="PATH",
                         help="write the run's metrics snapshot to PATH")

    bplace = bsub.add_parser(
        "place", help="optimize VP placement against ground truth"
    )
    bplace.add_argument("--isp", choices=("comcast", "charter"),
                        default="comcast")
    bplace.add_argument("--k", type=int, default=4,
                        help="vantage points to choose (default 4)")
    bplace.add_argument("--targets-per-region", type=int, default=24,
                        help="/24 targets sampled per region (default 24)")
    bplace.add_argument("--restarts", type=int, default=4,
                        help="seeded stochastic restarts (default 4)")

    bstream = bsub.add_parser(
        "stream", help="stream finished service corpora through the "
                       "incremental inference engine"
    )
    bstream.add_argument("state_dir", help="campaign-service state directory")
    bstream.add_argument("--isp", choices=("comcast", "charter"),
                         default="comcast")
    bstream.add_argument("--after-seq", type=int, default=0,
                         help="resume cursor: only ingest jobs submitted "
                              "after this sequence number (default 0)")

    service = sub.add_parser(
        "service",
        help="resilient campaign service: crash-safe job queue, leases, "
             "backpressure, graceful drain",
    )
    ssub = service.add_subparsers(dest="service_command", required=True)

    srun = ssub.add_parser("run", help="run the service loop")
    srun.add_argument("state_dir", help="service state directory")
    srun.add_argument("--executor-id", default="executor",
                      help="stable lease-owner id; a restart with the same "
                           "id reclaims its own leases immediately")
    srun.add_argument("--queue-limit", type=int, default=32,
                      help="admission limit on live jobs (default 32; "
                           "halves while shedding load)")
    srun.add_argument("--max-attempts", type=int, default=3,
                      help="attempt budget before a job is quarantined "
                           "as failed (default 3)")
    srun.add_argument("--lease-s", type=float, default=30.0,
                      help="lease duration; heartbeats extend it while an "
                           "attempt runs (default 30)")
    srun.add_argument("--tick-s", type=float, default=0.05,
                      help="idle loop tick (default 0.05)")
    srun.add_argument("--backoff-base-s", type=float, default=0.05,
                      help="retry backoff base; doubles per attempt with "
                           "seeded jitter (default 0.05)")
    srun.add_argument("--until-idle", action="store_true",
                      help="exit once every job is terminal and the inbox "
                           "is empty (soak/CI mode)")
    srun.add_argument("--max-jobs", type=int, default=None, metavar="N",
                      help="exit after N executed attempts")

    ssubmit = ssub.add_parser(
        "submit", help="spool a job spec into the service inbox"
    )
    ssubmit.add_argument("state_dir", help="service state directory")
    ssubmit.add_argument("--spec", metavar="PATH",
                         help="submit this job-spec artifact verbatim "
                              "(overrides the flags below)")
    ssubmit.add_argument("--pipeline", choices=("toy", "map-cable"),
                         default="toy")
    ssubmit.add_argument("--job-seed", type=int, default=0,
                         help="campaign seed inside the job (default 0)")
    ssubmit.add_argument("--fidelity",
                         choices=("full", "reduced", "minimal"),
                         default="full")
    ssubmit.add_argument("--allow-degraded", action="store_true",
                         help="let degraded attempts retry at lower "
                              "fidelity instead of shipping degraded maps")
    ssubmit.add_argument("--workers", type=int, default=0,
                         help="worker processes: 0 probes in-process "
                              "(default), N >= 1 spawns N supervised "
                              "workers")
    ssubmit.add_argument("--targets", type=int, default=8,
                         help="toy pipeline: probed targets (default 8)")
    ssubmit.add_argument("--hosts", type=int, default=2,
                         help="toy pipeline: per-side host count")
    ssubmit.add_argument("--isp", choices=("comcast", "charter"),
                         default="comcast",
                         help="map-cable pipeline: target ISP")
    ssubmit.add_argument("--sweep-vps", type=int, default=8,
                         help="map-cable pipeline: sweep VP count")
    ssubmit.add_argument("--faults", type=float, default=0.0, metavar="RATE",
                         help="inject this probe-loss rate (0..1)")
    ssubmit.add_argument("--worker-crash", type=float, default=0.0,
                         metavar="RATE",
                         help="chaos: per-(shard, attempt) worker SIGKILL "
                              "probability")
    ssubmit.add_argument("--worker-stall", type=float, default=0.0,
                         metavar="RATE",
                         help="chaos: per-(shard, attempt) worker stall "
                              "probability")
    ssubmit.add_argument("--chaos-fail-attempts", type=int, default=0,
                         metavar="N",
                         help="service chaos: fail the job's first N "
                              "attempts (exercises retry/poison paths)")
    ssubmit.add_argument("--corpus-format", choices=("json", "binary"),
                         default="json",
                         help="toy pipeline corpus artifact: JSON trace "
                              "list or columnar .npz (default json)")
    ssubmit.add_argument("--name", default="",
                         help="submission label (not part of the dedup "
                              "hash)")
    ssubmit.add_argument("--priority", type=int, default=0,
                         help="scheduling priority, higher first "
                              "(default 0)")

    sserve = ssub.add_parser(
        "serve", help="serve jobs/artifacts/diffs/events over HTTP "
                      "(read-only; never contends with executors)"
    )
    sserve.add_argument("state_dir", help="service state directory")
    sserve.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    sserve.add_argument("--port", type=int, default=8642,
                        help="bind port; 0 picks an ephemeral one "
                             "(default 8642)")

    sstatus = ssub.add_parser(
        "status", help="print the job table from a state directory"
    )
    sstatus.add_argument("state_dir", help="service state directory")

    sdrain = ssub.add_parser(
        "drain", help="ask a running service to drain and exit"
    )
    sdrain.add_argument("state_dir", help="service state directory")

    return parser


_COMMANDS = {
    "build": cmd_build,
    "map-cable": cmd_map_cable,
    "map-att": cmd_map_att,
    "ship": cmd_ship,
    "energy": cmd_energy,
    "resilience": cmd_resilience,
    "bias": cmd_bias,
    "service": cmd_service,
}


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code.

    Any :class:`~repro.errors.ReproError` — a corrupt artifact, a
    broken pipeline invariant under ``--validate strict``, a bad
    checkpoint — exits non-zero with a single-line diagnostic instead
    of a traceback.
    """
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
