"""Pipeline observability on the one-region campaign: span ids follow
the trace seed, and the profiler reports every phase.

Serial and supervised runs are compared in
``tests/integration/test_parity_matrix.py``.
"""

from region_pipeline import RegionPipeline


class TestParallelPipelineParity:
    def test_trace_seed_changes_span_ids_not_structure(
        self, internet, standard_vps
    ):
        def ids_for(trace_seed):
            pipeline = RegionPipeline(
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
        pipeline = RegionPipeline(
            internet.network, internet.comcast, standard_vps, sweep_vps=2,
            profile=True,
        )
        pipeline.run()
        report = pipeline.profiler.as_dict()
        assert set(report["phases_s"]) == {
            "collect", "aliases", "ip2co", "adjacency", "refine", "entries"
        }
        assert report["total_s"] > 0
        assert report["peak_rss_kb"] > 0
