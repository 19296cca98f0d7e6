"""Synthetic large-region corpora for inference tests and benchmarks.

Builds a deterministic traceroute corpus shaped like a real cable-ISP
campaign — regional COs with Comcast-style rDNS, backbone prefixes,
MPLS tunnels whose interiors only the follow-up (DPR) corpus reveals,
stale cross-region PTR records, and single-observation noise — without
paying for packet-level simulation.  Inference (IP→CO mapping,
adjacency extraction/pruning, refinement) runs over it at scales no
simulated campaign reaches cheaply.

Everything is drawn from one seeded ``random.Random``; the same
arguments always produce byte-identical corpora.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.alias.resolve import AliasSets
from repro.net.dns import RdnsStore


@dataclass
class SyntheticPlan:
    """A generated campaign as bare address chains, before any trace
    materialization.

    Every RNG draw happens while planning;
    :func:`build_synthetic_columnar_corpus` then streams the chains
    straight into a :class:`~repro.corpus.columnar.CorpusBuilder` with
    no per-hop objects at all.  ``TraceCorpus.to_traces`` gives the
    same campaign as :class:`~repro.measure.traceroute.TraceResult`
    objects for the object-graph adapters.
    """

    isp: str
    rdns: RdnsStore
    trace_chains: "list[list[str]]" = field(default_factory=list)
    followup_chains: "list[list[str]]" = field(default_factory=list)
    aliases: AliasSets = field(default_factory=lambda: AliasSets([]))


#: Endpoints of every chain: one source, and a placeholder destination
#: for an empty chain.
_SRC_ADDRESS = "192.0.2.1"
_EMPTY_DST = "192.0.2.2"


def build_synthetic_region_plan(
    regions: int = 2,
    cos_per_region: int = 30,
    aggs_per_region: int = 3,
    link_variants: int = 4,
    traces: int = 20000,
    followups: int = 1200,
    stale_edges: int = 8,
    backbone_pops: int = 4,
    tunnel_share: float = 0.25,
    seed: int = 2021,
) -> SyntheticPlan:
    """Generate a campaign plan over ``regions × cos_per_region`` COs.

    Defaults produce 60 COs and 20k main-corpus chains.
    """
    rng = random.Random(seed)
    corpus = SyntheticPlan(isp="comcast", rdns=RdnsStore())
    rdns = corpus.rdns

    def region_name(r: int) -> str:
        return f"region{r:02d}"

    def co_city(c: int) -> str:
        return f"co{c:02d}"

    # ------------------------------------------------------------------
    # Plant: per region, aggs_per_region AggCOs feed the remaining
    # EdgeCOs, every edge dual-homed to two aggs, each physical link
    # observed through `link_variants` interface-address pairs.
    # ------------------------------------------------------------------
    agg_ips: "dict[tuple[int, int], list[str]]" = {}
    links: "list[dict]" = []
    for r in range(regions):
        edges = list(range(aggs_per_region, cos_per_region))
        per_agg_count = [0] * aggs_per_region
        for e in edges:
            homes = [e % aggs_per_region, (e + 1) % aggs_per_region]
            for li, a in enumerate(homes):
                l_index = per_agg_count[a]
                per_agg_count[a] += 1
                pairs = []
                for v in range(link_variants):
                    agg_ip = f"10.{r}.{a}.{10 + 8 * l_index + v}"
                    edge_ip = f"10.{r}.{e}.{10 + 8 * li + v}"
                    rdns.set(
                        agg_ip,
                        f"ae-{l_index}-{v}-ar01.{co_city(a)}.ca."
                        f"{region_name(r)}.comcast.net",
                    )
                    rdns.set(
                        edge_ip,
                        f"po-{li}-{v}-cbr01.{co_city(e)}.ca."
                        f"{region_name(r)}.comcast.net",
                    )
                    pairs.append((agg_ip, edge_ip))
                    agg_ips.setdefault((r, a), []).append(agg_ip)
                links.append({
                    "region": r, "agg": a, "edge": e,
                    "pairs": pairs,
                    "mid": f"10.{r}.{e}.{240 + li}",
                    "tunnel": rng.random() < tunnel_share,
                })

    # Backbone PoPs: traces may enter the region through one of these.
    backbone_ips = []
    for k in range(backbone_pops):
        bb_ip = f"10.200.{k}.1"
        rdns.set(bb_ip, f"be-1-cr01.bbpop{k:02d}.ca.ibone.comcast.net")
        backbone_ips.append(bb_ip)

    # Stale PTR records: a handful of edge interfaces keep the hostname
    # of a CO in *another* region (equipment moved, zone did not) —
    # these become the cross-region adjacencies B.2 prunes.
    if regions > 1:
        stale_candidates = [link for link in links if not link["tunnel"]]
        rng.shuffle(stale_candidates)
        for link in stale_candidates[:stale_edges]:
            other_r = (link["region"] + 1) % regions
            donor_e = aggs_per_region  # first edge CO of the donor region
            donor = (
                f"po-9-9-cbr01.{co_city(donor_e)}.ca."
                f"{region_name(other_r)}.comcast.net"
            )
            _, edge_ip = link["pairs"][0]
            rdns.set_stale(edge_ip, donor)

    # ------------------------------------------------------------------
    # Main corpus: `traces` sweeps, each riding backbone → agg → edge,
    # sometimes trailing into a customer address or a false edge→edge
    # hop (the refinement stage's food).
    # ------------------------------------------------------------------
    for _ in range(traces):
        link = links[rng.randrange(len(links))]
        agg_ip, edge_ip = link["pairs"][rng.randrange(link_variants)]
        chain: "list[str]" = []
        if rng.random() < 0.4:
            chain.append(backbone_ips[rng.randrange(len(backbone_ips))])
        chain.extend((agg_ip, edge_ip))
        roll = rng.random()
        if roll < 0.1:
            # False EdgeCO→EdgeCO adjacency (stale rDNS in the wild).
            other = links[rng.randrange(len(links))]
            if other["region"] == link["region"] and other["edge"] != link["edge"]:
                chain.append(other["pairs"][0][1])
        elif roll < 0.4:
            chain.append(f"10.{link['region']}.{link['edge']}.{200 + rng.randrange(4)}")
        corpus.trace_chains.append(chain)

    # ------------------------------------------------------------------
    # Follow-up (DPR) corpus: one probe per revealed interior.  Tunnel
    # links show their mid hop (entry/exit separated ⇒ pruned as MPLS);
    # plain links confirm direct adjacency.  Reversed and duplicate-hop
    # traces are deliberately present: correct extraction must scan
    # occurrence pairs in path order, not first-occurrence indices.
    # ------------------------------------------------------------------
    followup_pool: "list[list[str]]" = []
    for link in links:
        for agg_ip, edge_ip in link["pairs"]:
            if link["tunnel"]:
                followup_pool.append([agg_ip, link["mid"], edge_ip])
            else:
                followup_pool.append([agg_ip, edge_ip])
                # Red herrings that must NOT separate the pair:
                followup_pool.append([edge_ip, link["mid"], agg_ip])
                followup_pool.append([agg_ip, edge_ip, agg_ip])
    rng.shuffle(followup_pool)
    corpus.followup_chains = (
        followup_pool[: followups if followups else len(followup_pool)]
    )

    # Alias sets: each AggCO's interfaces belong to one router.
    groups = [
        set(ips) for (_r, _a), ips in sorted(agg_ips.items())
    ]
    corpus.aliases = AliasSets(groups)
    return corpus


def build_synthetic_columnar_corpus(**kwargs):
    """The planned campaign accumulated straight into columnar corpora.

    Returns ``(plan, corpus, followup_corpus)``: the chains stream
    through :class:`~repro.corpus.columnar.CorpusBuilder.add_path`
    without constructing a single ``Hop`` or ``TraceResult``.  Their
    ``to_traces()`` round-trips through ``TraceCorpus.from_traces``
    column for column.
    """
    from repro.corpus import CorpusBuilder

    plan = build_synthetic_region_plan(**kwargs)

    def accumulate(chains: "list[list[str]]"):
        builder = CorpusBuilder()
        for chain in chains:
            builder.add_path(
                _SRC_ADDRESS, chain[-1] if chain else _EMPTY_DST, chain
            )
        return builder.build()

    return plan, accumulate(plan.trace_chains), accumulate(plan.followup_chains)
