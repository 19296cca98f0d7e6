"""Parallel pipeline execution: byte-identical artifacts, same health.

Shares the session-scoped ``comcast_result`` fixture as the serial
reference, so only the supervised run is paid for here.
"""

from repro.infer.pipeline import CableInferencePipeline
from repro.io.export import region_to_json
from repro.measure.substrates import WorkerSpec

#: Health fields only the supervisor fills in (zero for a serial run).
_SUPERVISOR_HEALTH = ("shards_planned", "workers_spawned")


class TestParallelPipelineParity:
    def test_exported_regions_byte_identical(
        self, internet, standard_vps, comcast_result
    ):
        # Workers rebuild the session fixture's full internet (seed 3).
        parallel = CableInferencePipeline(
            internet.network, internet.comcast, standard_vps, sweep_vps=6,
            workers=2, profile=True,
            worker_spec=WorkerSpec(
                "repro.measure.substrates:cable_substrate",
                {"seed": 3, "include_telco": True, "include_mobile": True},
            ),
        ).run()
        assert set(parallel.regions) == set(comcast_result.regions)
        for name in sorted(comcast_result.regions):
            assert region_to_json(parallel.regions[name]) == region_to_json(
                comcast_result.regions[name]
            ), f"region {name} diverged under --workers"
        health = parallel.health.as_dict()
        reference = comcast_result.health.as_dict()
        for field in _SUPERVISOR_HEALTH:
            assert health.pop(field) > 0
            reference.pop(field)
        assert health == reference

    def test_trace_seed_changes_span_ids_not_structure(
        self, internet, standard_vps
    ):
        def ids_for(trace_seed):
            pipeline = CableInferencePipeline(
                internet.network, internet.comcast, standard_vps,
                sweep_vps=2, trace_seed=trace_seed,
            )
            pipeline.run()
            names = [s.name for s in pipeline.obs.spans]
            return names, [s.span_id for s in pipeline.obs.spans]

        names_a, ids_a = ids_for(0)
        names_b, ids_b = ids_for(99)
        assert names_a == names_b
        assert ids_a != ids_b

    def test_profiler_reported_phases(self, internet, standard_vps):
        pipeline = CableInferencePipeline(
            internet.network, internet.comcast, standard_vps, sweep_vps=6,
            profile=True,
        )
        pipeline.run()
        report = pipeline.profiler.as_dict()
        assert set(report["phases_s"]) == {
            "collect", "aliases", "ip2co", "adjacency", "refine", "entries"
        }
        assert report["total_s"] > 0
        assert report["peak_rss_kb"] > 0
