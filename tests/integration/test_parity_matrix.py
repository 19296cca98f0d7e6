"""The parity contract: the inferred regions do not depend on how the
traces were collected.

One small campaign (:class:`~region_pipeline.RegionPipeline` on the
seed-11 cable substrate, Comcast, two sweep VPs) runs in every
combination of five axes:

* runner: serial, or supervised with two spawned workers;
* corpus: the object-graph (``json``) or columnar (``binary``) phase 2;
* route model: spf, valley-free or hot-potato;
* faults: none, probe loss only (the fast faulted hop), or the
  per-probe path (loss, ICMP rate limits, rDNS timeouts and a VP that
  dies mid-sweep, so failover runs);
* run: fresh, or resumed from a log cut after a seeded save with a
  torn half of the next save appended, as a SIGKILL mid-save leaves it.

Every cell must give its (route model, faults) group's pinned region
digest, and the ip2co mapping, the mapping and adjacency accounting and
the campaign health of the group's serial/json/fresh cell.

Probing runs are shared between cells: a fresh run probes with the json
corpus, a resumed run with the binary one, and the other corpus format
of each re-runs phase 2 from that run's own complete checkpoint, which
probes nothing.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.faults import FaultPlan
from repro.io.export import region_to_json
from repro.measure.substrates import cable_campaign
from region_pipeline import RegionPipeline

ROUTE_MODELS = ("spf", "valley-free", "hot-potato")

#: Fault plan and probe attempts per fault group.
FAULTS = {
    "off": (None, 1),
    "loss": (FaultPlan(seed=0, probe_loss=0.05), 2),
    "per-probe": (
        FaultPlan(seed=0, probe_loss=0.05, rate_limit_share=0.2,
                  rdns_timeout=0.05, vp_dropout=1, vp_dropout_after=200),
        2,
    ),
}

#: sha256 over the region JSONs in name order, per (route model, faults).
PINNED = {
    ("spf", "off"):
        "51c099535c3290faec01faba404dd0fbf553a6fd62fb5627a8a859c8631e3c47",
    ("spf", "loss"):
        "d857e40466a1dfb04d6875ccf64bddcb762d114698c7380c83c55750868fa476",
    ("spf", "per-probe"):
        "7e1defa55f181a0f278024e52d99e0bfc1ba9edcfd4bda560b1b5d7e15d72e5e",
    ("valley-free", "off"):
        "a1a4fa790847b2e28951021c94cddb32c22efaf7e76792e6419bb0a6b37f6f08",
    ("valley-free", "loss"):
        "666fcd1d0b3764d8d023e56d05dab7cde6bc557d74ce26fa98cff3152beeeb10",
    ("valley-free", "per-probe"):
        "bd131bc51ae060e7bfcabbb1093f8b64316b77ffe533c43875a0952e7849f07a",
    ("hot-potato", "off"):
        "c60c7f390ab890391608a0659dad1eaacceaa55c68db819cc28e21ff21a08c8d",
    ("hot-potato", "loss"):
        "b00b93de38b85d35662cfbb10aba8d78be6ab47dc01d010deb1e070da4694ce1",
    ("hot-potato", "per-probe"):
        "73b4fbee3842a632798e126d438421ddb260202a335a87eeb3c3f7436d87eb14",
}

#: Health fields that differ by design: the supervisor's shard and
#: worker bookkeeping, and the flag a resumed run sets.
_BOOKKEEPING = ("shards_planned", "workers_spawned", "resumed")

#: Jobs between checkpoint saves: small enough that every stage saves
#: partway through, so a cut can land inside a stage.
SAVE_EVERY = 400

CELLS = [
    pytest.param(model, faults, runner, corpus, run,
                 id=f"{model}-{faults}-{runner}-{corpus}-{run}")
    for model in ROUTE_MODELS
    for faults in FAULTS
    for runner in ("serial", "workers")
    for run in ("fresh", "resumed")
    for corpus in ("json", "binary")
]


class _CellPipeline(RegionPipeline):
    def _make_runner(self):
        runner = super()._make_runner()
        runner.checkpoint_every = SAVE_EVERY
        return runner


def _digest(result) -> str:
    digest = hashlib.sha256()
    for name in sorted(result.regions):
        digest.update(region_to_json(result.regions[name]).encode())
    return digest.hexdigest()


def _cut(log: bytes, key: str) -> bytes:
    """The log up to a seeded save *k*, then half of save *k* + 1."""
    lines = log.splitlines(keepends=True)
    k = random.Random(key).randint(1, len(lines) - 2)
    return b"".join(lines[: 1 + k]) + lines[1 + k][: len(lines[1 + k]) // 2]


class _Matrix:
    """Runs cells on demand, keeping only the current group's runs."""

    def __init__(self, root) -> None:
        self.root = root
        self._model = None
        self._substrate = None
        self._group = None
        self._cells: "dict[tuple[str, str, str], object]" = {}

    def _campaign(self, model):
        if self._model != model:
            self._substrate = None  # freed before the next one is built
            self._substrate = cable_campaign(seed=11, route_model=model)
            self._model = model
        return self._substrate

    def _run(self, model, faults, runner, corpus, checkpoint, resume):
        internet, fleet, worker_spec = self._campaign(model)
        plan, attempts = FAULTS[faults]
        return _CellPipeline(
            internet.network, internet.comcast, fleet, sweep_vps=2,
            workers=2 if runner == "workers" else 0,
            worker_spec=worker_spec, faults=plan, attempts=attempts,
            checkpoint_path=checkpoint, resume=resume, corpus_format=corpus,
        ).run()

    def cell(self, model, faults, runner, corpus, run):
        if self._group != (model, faults):
            self._group, self._cells = (model, faults), {}
        key = (runner, corpus, run)
        if key in self._cells:
            return self._cells[key]
        probed = "json" if run == "fresh" else "binary"
        checkpoint = self.root / f"{model}-{faults}-{runner}-{run}.log"
        if corpus != probed:
            # Phase 2 again, from the probing run's complete checkpoint.
            self.cell(model, faults, runner, probed, run)
            result = self._run(model, faults, runner, corpus, checkpoint, True)
        elif run == "fresh":
            result = self._run(model, faults, runner, corpus, checkpoint, False)
        else:
            self.cell(model, faults, runner, "json", "fresh")
            fresh = self.root / f"{model}-{faults}-{runner}-fresh.log"
            checkpoint.write_bytes(
                _cut(fresh.read_bytes(), f"{model}|{faults}|{runner}")
            )
            result = self._run(model, faults, runner, corpus, checkpoint, True)
        self._cells[key] = result
        return result


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    return _Matrix(tmp_path_factory.mktemp("parity"))


def _health(result) -> "dict[str, object]":
    health = result.health.as_dict()
    for name in _BOOKKEEPING:
        health.pop(name)
    return health


@pytest.mark.parametrize("model, faults, runner, corpus, run", CELLS)
def test_cell(matrix, model, faults, runner, corpus, run):
    result = matrix.cell(model, faults, runner, corpus, run)
    reference = matrix.cell(model, faults, "serial", "json", "fresh")

    # The axes are real: the cell ran the way its id says.  Every cell
    # but the fresh probing run resumes from a checkpoint.
    assert (result.corpus is not None) == (corpus == "binary")
    assert result.health.resumed == ((corpus, run) != ("json", "fresh"))
    assert (result.health.workers_spawned > 0) == (runner == "workers")
    if faults == "per-probe":
        assert result.health.vps_lost

    assert _digest(result) == PINNED[model, faults]
    assert result.mapping.mapping == reference.mapping.mapping
    assert result.mapping.stats == reference.mapping.stats
    assert result.adjacencies.stats == reference.adjacencies.stats
    assert _health(result) == _health(reference)


def test_one_worker_is_supervised_and_serial_equal(matrix):
    """``workers=1`` is one supervised worker per stage (it once ran the
    serial runner) and gives the serial cell's regions and health."""
    reference = matrix.cell("spf", "off", "serial", "json", "fresh")
    internet, fleet, worker_spec = matrix._campaign("spf")
    pipeline = _CellPipeline(
        internet.network, internet.comcast, fleet, sweep_vps=2,
        workers=1, worker_spec=worker_spec,
    )
    result = pipeline.run()
    supervised = [s.attributes["workers"] for s in pipeline.obs.spans if s.name.startswith("supervise:")]
    assert supervised == [1, 1, 1]
    assert result.health.workers_spawned >= 3
    assert _digest(result) == PINNED["spf", "off"]
    assert _health(result) == _health(reference)
