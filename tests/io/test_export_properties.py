"""Property-based round-trip and adversarial-input tests for artifact IO.

Two claims, checked over generated inputs:

* serialize → parse is the identity on region graphs and campaign
  checkpoints (no field silently dropped or coerced);
* any truncation or structured mutation of a valid artifact surfaces
  as a :class:`~repro.errors.ReproError` with a JSON path — never a
  raw ``KeyError``/``TypeError`` escaping from loader internals.
"""

import json
import tempfile
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from repro.errors import CheckpointError, ReproError, SchemaError
from repro.infer.refine import RefinedRegion, RefineStats
from repro.io.checkpoint import CampaignCheckpoint, trace_to_dict
from repro.io.export import region_from_json, region_to_json
from repro.measure.traceroute import Hop, TraceResult

co_names = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=2, max_size=8),
    min_size=2, max_size=8, unique=True,
)


@st.composite
def regions(draw):
    names = draw(co_names)
    split = draw(st.integers(min_value=1, max_value=len(names) - 1))
    aggs, edge_cos = set(names[:split]), set(names[split:])
    graph = nx.DiGraph()
    graph.add_nodes_from(names)
    for agg in sorted(aggs):
        for dst in sorted(edge_cos):
            if draw(st.booleans()):
                graph.add_edge(
                    agg, dst,
                    weight=draw(st.integers(min_value=0, max_value=50)),
                    inferred=draw(st.booleans()),
                )
    group_size = draw(st.integers(min_value=0, max_value=len(aggs)))
    groups = [set(sorted(aggs)[:group_size])] if group_size else []
    stats = RefineStats(
        initial_edges=draw(st.integers(min_value=0, max_value=100)),
        removed_edge_edges=draw(st.integers(min_value=0, max_value=20)),
        added_ring_edges=draw(st.integers(min_value=0, max_value=20)),
        final_edges=graph.number_of_edges(),
    )
    return RefinedRegion(
        name=draw(st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12
        )),
        graph=graph, agg_cos=aggs, edge_cos=edge_cos,
        agg_groups=groups, stats=stats,
    )


class TestRegionRoundTrip:
    @given(regions())
    def test_serialize_parse_is_identity(self, region):
        loaded = region_from_json(region_to_json(region))
        assert loaded.name == region.name
        assert loaded.agg_cos == region.agg_cos
        assert loaded.edge_cos == region.edge_cos
        assert [set(g) for g in loaded.agg_groups] == region.agg_groups
        assert set(loaded.graph.nodes) == set(region.graph.nodes)
        assert {
            (a, b): (d["weight"], d["inferred"])
            for a, b, d in loaded.graph.edges(data=True)
        } == {
            (a, b): (d.get("weight", 0), bool(d.get("inferred", False)))
            for a, b, d in region.graph.edges(data=True)
        }
        assert loaded.stats.initial_edges == region.stats.initial_edges
        assert loaded.stats.final_edges == region.stats.final_edges

    @given(regions(), st.data())
    def test_truncated_region_never_leaks_raw_errors(self, region, data):
        text = region_to_json(region)
        cut = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
        with pytest.raises(ReproError):
            region_from_json(text[:cut])

    @given(regions(), st.data())
    def test_mutated_region_raises_schema_error(self, region, data):
        payload = json.loads(region_to_json(region))
        mutation = data.draw(st.sampled_from([
            "drop-key", "edges-not-list", "edge-bad-type", "edge-missing-key",
            "undeclared-endpoint", "group-not-agg", "stats-bad-type",
            "bad-kind", "bad-version",
        ]))
        if mutation == "drop-key":
            del payload[data.draw(st.sampled_from(
                ["name", "agg_cos", "edge_cos", "agg_groups", "edges", "stats"]
            ))]
        elif mutation == "edges-not-list":
            payload["edges"] = 123
        elif mutation == "edge-bad-type":
            payload["edges"] = [{"from": "a", "to": "b",
                                 "observations": "three", "inferred": False}]
        elif mutation == "edge-missing-key":
            payload["edges"] = [{"from": "a", "observations": 1,
                                 "inferred": False}]
        elif mutation == "undeclared-endpoint":
            payload["edges"] = [{"from": "zz-undeclared", "to": "zz-ghost",
                                 "observations": 1, "inferred": False}]
        elif mutation == "group-not-agg":
            payload["agg_groups"] = [sorted(payload["edge_cos"])]
        elif mutation == "stats-bad-type":
            payload["stats"]["final_edges"] = None
        elif mutation == "bad-kind":
            payload["kind"] = "cable-regions"
        elif mutation == "bad-version":
            payload["schema"] = 999
        with pytest.raises(SchemaError, match=r"\$"):
            region_from_json(json.dumps(payload))


addresses = st.from_regex(r"10\.(\d|[1-9]\d)\.(\d|[1-9]\d)\.(\d|[1-9]\d)",
                          fullmatch=True)

hops = st.builds(
    Hop,
    index=st.integers(min_value=1, max_value=32),
    address=st.one_of(st.none(), addresses),
    rdns=st.one_of(st.none(), st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz.-", min_size=1, max_size=20
    )),
    rtt_ms=st.one_of(st.none(), st.floats(
        min_value=0.0, max_value=500.0, allow_nan=False
    )),
    reply_ttl=st.one_of(st.none(), st.integers(min_value=1, max_value=255)),
    attempts=st.integers(min_value=1, max_value=3),
)

traces = st.builds(
    TraceResult,
    src_address=addresses,
    dst_address=addresses,
    hops=st.lists(hops, max_size=6),
    completed=st.booleans(),
    flow_id=st.integers(min_value=0, max_value=2**16),
    vp_name=st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", max_size=12),
)


class TestCheckpointRoundTrip:
    @given(st.lists(traces, max_size=5),
           st.lists(st.tuples(st.text(max_size=8), st.text(max_size=8)),
                    max_size=5, unique=True),
           st.booleans())
    def test_stage_roundtrip(self, stage_traces, done, complete):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ckpt.json"
            checkpoint = CampaignCheckpoint(path)
            checkpoint.record_stage("slash24", stage_traces, done, complete)
            checkpoint.save()
            loaded = CampaignCheckpoint.load(path)
        assert loaded.stage_complete("slash24") == complete
        assert loaded.stage_done("slash24") == set(done)
        assert (
            [trace_to_dict(t) for t in loaded.stage_traces("slash24")]
            == [trace_to_dict(t) for t in stage_traces]
        )

    @given(st.lists(traces, min_size=1, max_size=4), st.data())
    def test_truncated_checkpoint_keeps_its_whole_records(
        self, stage_traces, data
    ):
        """A cut inside the header raises; a cut after it is a torn
        save, so the load keeps exactly the records before the cut."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ckpt.json"
            checkpoint = CampaignCheckpoint(path)
            ends = []
            for index, trace in enumerate(stage_traces):
                checkpoint.record_stage(
                    "slash24", [trace], [("vp", str(index))],
                    index == len(stage_traces) - 1,
                )
                checkpoint.save()
                ends.append(path.stat().st_size)
            raw = path.read_bytes()
            cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
            path.write_bytes(raw[:cut])
            if cut <= raw.index(b"\n"):
                with pytest.raises(CheckpointError):
                    CampaignCheckpoint.load(path)
                return
            loaded = CampaignCheckpoint.load(path)
        whole = sum(1 for end in ends if end <= cut)
        assert (
            [trace_to_dict(t) for t in loaded.stage_traces("slash24")]
            == [trace_to_dict(t) for t in stage_traces[:whole]]
        )
        assert loaded.stage_done("slash24") == {
            ("vp", str(index)) for index in range(whole)
        }
        assert loaded.stage_complete("slash24") == (whole == len(ends))

    @given(st.lists(traces, min_size=1, max_size=3), st.data())
    def test_mutated_checkpoint_raises_checkpoint_error(
        self, stage_traces, data
    ):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ckpt.json"
            checkpoint = CampaignCheckpoint(path)
            checkpoint.record_stage("slash24", stage_traces, [], True)
            checkpoint.save()
            header, record = map(json.loads, path.read_text().splitlines())
            mutation = data.draw(st.sampled_from([
                "hop-index-string", "trace-missing-dst", "stage-not-object",
                "done-not-list", "wrong-kind",
            ]))
            stage = record["stages"]["slash24"]
            if mutation == "hop-index-string":
                stage["traces"][0][5] = [["one", None, None, None, None, 1]]
            elif mutation == "trace-missing-dst":
                del stage["traces"][0][1]
            elif mutation == "stage-not-object":
                record["stages"]["slash24"] = "done"
            elif mutation == "done-not-list":
                stage["done"] = {"vp": "t"}
            elif mutation == "wrong-kind":
                header["kind"] = "campaign-health"
            # The mutated record is whole, so it is corruption, never
            # mistaken for a torn save.
            path.write_text(f"{json.dumps(header)}\n{json.dumps(record)}\n")
            with pytest.raises(CheckpointError, match="checkpoint"):
                CampaignCheckpoint.load(path)
