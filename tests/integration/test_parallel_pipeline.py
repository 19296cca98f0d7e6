"""Pipeline observability on the one-region campaign: span ids follow
the trace seed, and the profile report lists every phase.

Serial and supervised runs are compared in
``tests/integration/test_parity_matrix.py``.
"""

from region_pipeline import RegionPipeline

from repro.obs import phase_report


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
        )
        pipeline.run()
        report = phase_report(pipeline.obs)
        assert {line.split()[0] for line in report[:-2]} == {
            "collect", "aliases", "ip2co", "adjacency", "refine", "entries"
        }
        assert float(report[-2].split()[1].rstrip("s")) > 0
        assert float(report[-1].split()[2]) > 0
