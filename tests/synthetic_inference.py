"""Two synthetic region campaigns with pinned phase-2 digests."""

from repro.bias.incremental import region_digest
from repro.infer.adjacency import AdjacencyExtractor
from repro.infer.ip2co import Ip2CoMapper
from repro.infer.refine import RegionRefiner
from repro.perf import InferenceCache
from repro.perf.synthetic import build_synthetic_columnar_corpus
from repro.rdns.regexes import HostnameParser

#: name → (``build_synthetic_columnar_corpus`` kwargs, region digest).
SHAPES = {
    "2x8-1500": (
        {"regions": 2, "cos_per_region": 8, "traces": 1500, "followups": 200, "seed": 2021},
        "fdf6e0a1f74c09ac6c4a7bb2e4f4b20285811069869c46cadfe2020977e2e21a",
    ),
    "2x30-20k": (
        {"regions": 2, "cos_per_region": 30, "traces": 20000, "followups": 1200, "seed": 2021},
        "86b145311679d56ea5339313749f1c6c76088c00ccd3ddc4f27354c9fd690c4d",
    ),
}


def build_shape(name: str):
    """``(plan, corpus, followup_corpus)`` for one of :data:`SHAPES`."""
    return build_synthetic_columnar_corpus(**SHAPES[name][0])


def infer_digest(plan, corpus, followups, columnar: bool = True) -> str:
    """Region digest of IP→CO mapping, adjacency extraction and
    refinement; ``columnar=False`` runs the object adapters over
    ``to_traces()`` of the same corpora."""
    parser = HostnameParser()
    cache = InferenceCache(plan.rdns, parser)
    mapper = Ip2CoMapper(plan.rdns, plan.isp, parser=parser, cache=cache)
    if columnar:
        mapping = mapper.build_columnar(corpus, plan.aliases)
    else:
        traces = corpus.to_traces()
        mapping = mapper.build(traces, plan.aliases)
    extractor = AdjacencyExtractor(mapping, plan.rdns, plan.isp, parser=parser, cache=cache)
    if columnar:
        adjacencies = extractor.extract_columnar(corpus, followups)
    else:
        adjacencies = extractor.extract(traces, followup_traces=followups.to_traces())
    refiner = RegionRefiner(cache=cache)
    regions = {name: refiner.refine(name, counter) for name, counter in adjacencies.per_region.items()}
    return region_digest(regions)
