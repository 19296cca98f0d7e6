"""Vantage-point placement optimization against ground truth.

"Where should the next K probes sit?" is a coverage problem: each
candidate VP sees a fixed set of ground-truth CO edges (the links its
forwarding paths actually cross), and picking K VPs to maximize the
union is submodular max-coverage — greedy gets within ``1 − 1/e`` of
optimal, and seeded stochastic restarts claw back some of the rest.

The optimizer walks the substrate's *forwarding paths* rather than
running traceroutes: placement asks what a VP could possibly observe,
and the path oracle answers that exactly and cheaply.  The random
baseline replays the same scoring over seeded random K-subsets, so the
reported gain is attributable to placement alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import RoutingError
from repro.net.router import _stable_hash
from repro.topology.isp import slash24_targets_by_region, split_vps


@dataclass(frozen=True)
class PlacementResult:
    """The outcome of one placement optimization."""

    #: How many VPs were requested.
    k: int
    #: Chosen VP names, in greedy pick order.
    chosen: "list[str]"
    #: Ground-truth directed CO edges the chosen set covers / total.
    covered_edges: int
    total_edges: int
    #: Mean covered-edge recall of seeded random K-subsets.
    random_recall: float
    random_trials: int
    #: Per-pick marginal gains (edge counts), same order as ``chosen``.
    marginal_gains: "list[int]" = field(default_factory=list)

    @property
    def edge_recall(self) -> float:
        return self.covered_edges / self.total_edges if self.total_edges else 1.0

    @property
    def gain_over_random(self) -> float:
        return self.edge_recall - self.random_recall

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "chosen": list(self.chosen),
            "covered_edges": self.covered_edges,
            "total_edges": self.total_edges,
            "edge_recall": round(self.edge_recall, 6),
            "random_recall": round(self.random_recall, 6),
            "random_trials": self.random_trials,
            "marginal_gains": list(self.marginal_gains),
        }


class VpPlacementOptimizer:
    """Greedy / seeded-stochastic max-coverage VP selection.

    Candidates default to the *external* members of *vps* (sources
    outside the ISP's pool — the populations the paper could actually
    rent); internal VPs would trivially win by sitting on the edges
    they claim to discover.
    """

    def __init__(
        self,
        internet,
        isp,
        vps,
        targets_per_region: int = 12,
        seed: int = 0,
    ) -> None:
        self.internet = internet
        self.isp = isp
        self.network = internet.network
        self.seed = seed
        self.candidates = split_vps(isp, vps)[0]
        self.targets = self._sample_targets(targets_per_region)
        self.truth_edges = self._truth_edges()
        self._coverage: "dict[str, frozenset]" = {}

    # ------------------------------------------------------------------
    # Ground truth and the per-VP coverage oracle
    # ------------------------------------------------------------------
    def _truth_edges(self) -> "frozenset[tuple[str, str]]":
        edges = set()
        for region_name in sorted(self.isp.regions):
            for up, down in self.isp.regions[region_name].edge_pairs():
                edges.add((up, down))
        return frozenset(edges)

    def _sample_targets(self, per_region: int) -> "list[str]":
        """A seeded spread of one-per-/24 probe addresses per region."""
        targets = []
        for region_name, region_targets in slash24_targets_by_region(
            self.isp
        ).items():
            rng = random.Random(f"bias-place|{self.seed}|{region_name}")
            if len(region_targets) > per_region:
                region_targets = rng.sample(region_targets, per_region)
            targets.extend(region_targets)
        return targets

    def coverage_of(self, vp) -> "frozenset[tuple[str, str]]":
        """Ground-truth CO edges crossed by *vp*'s forwarding paths."""
        cached = self._coverage.get(vp.name)
        if cached is not None:
            return cached
        covered = set()
        for address in self.targets:
            dst, _exists = self.network.route_target(address)
            if dst is None:
                continue
            flow = _stable_hash("bias-place", vp.name, address)
            try:
                path = self.network.forwarding_path(vp.host, dst, flow_id=flow)
            except RoutingError:
                continue
            for prev, cur in zip(path, path[1:]):
                co_a, co_b = prev.co, cur.co
                if co_a is None or co_b is None or co_a is co_b:
                    continue
                if (co_a.uid, co_b.uid) in self.truth_edges:
                    covered.add((co_a.uid, co_b.uid))
                if (co_b.uid, co_a.uid) in self.truth_edges:
                    covered.add((co_b.uid, co_a.uid))
        result = frozenset(covered)
        self._coverage[vp.name] = result
        return result

    # ------------------------------------------------------------------
    # Optimization
    # ------------------------------------------------------------------
    def _greedy(self, k: int, rng: "random.Random | None" = None):
        """One greedy pass; *rng* (when given) picks among near-ties."""
        chosen: "list" = []
        gains: "list[int]" = []
        covered: "set[tuple[str, str]]" = set()
        remaining = list(self.candidates)
        while remaining and len(chosen) < k:
            scored = sorted(
                (
                    (len(self.coverage_of(vp) - covered), vp.name, vp)
                    for vp in remaining
                ),
                reverse=True,
            )
            if rng is None:
                gain, _name, pick = scored[0]
            else:
                # Stochastic restart: sample among the leaders so
                # different seeds explore different greedy trajectories.
                pool_size = min(3, len(scored))
                gain, _name, pick = scored[rng.randrange(pool_size)]
            if gain == 0 and chosen:
                break
            chosen.append(pick)
            gains.append(gain)
            covered |= self.coverage_of(pick)
            remaining.remove(pick)
        return chosen, gains, covered

    def optimize(self, k: int, restarts: int = 4) -> PlacementResult:
        """Pick K VPs maximizing covered ground-truth edge count.

        Runs one deterministic greedy pass plus *restarts* seeded
        stochastic passes and keeps the best; ties prefer the
        deterministic pass so results are stable run-to-run.
        """
        best = self._greedy(k)
        for restart in range(restarts):
            rng = random.Random(f"bias-place-restart|{self.seed}|{restart}")
            attempt = self._greedy(k, rng)
            if len(attempt[2]) > len(best[2]):
                best = attempt
        chosen, gains, covered = best
        return PlacementResult(
            k=k,
            chosen=[vp.name for vp in chosen],
            covered_edges=len(covered),
            total_edges=len(self.truth_edges),
            random_recall=self.random_baseline(k),
            random_trials=self.baseline_trials,
            marginal_gains=gains,
        )

    #: Random K-subset draws averaged into the baseline.
    baseline_trials = 20

    def random_baseline(self, k: int) -> float:
        """Mean edge recall of seeded random K-subsets of the candidates."""
        if not self.truth_edges or not self.candidates:
            return 0.0
        k = min(k, len(self.candidates))
        total = 0.0
        for trial in range(self.baseline_trials):
            rng = random.Random(f"bias-place-baseline|{self.seed}|{trial}")
            subset = rng.sample(self.candidates, k)
            covered = set()
            for vp in subset:
                covered |= self.coverage_of(vp)
            total += len(covered) / len(self.truth_edges)
        return total / self.baseline_trials
