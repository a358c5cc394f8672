"""Differential: directed IncH2H± on the level engine against the scalar
reference.

:func:`repro.h2h.inch2h.inch2h_increase` / ``_decrease`` run
the shared level-synchronous engine of :mod:`repro.h2h.inch2h` over the
``TO``/``FROM`` label matrices; ``tests/reference_directed_inch2h.py``
is the queue-driven scalar form they replaced.  On twin clones of one
index, every batch must leave bit-equal labels, supports and slot
weights of both directions and bit-equal directed shortcut state,
return the same changed records (the reference's, put in the level
engine's order of ``depth(u)``, direction, ``u``, ``depth_a``) and add
the same ``OpCounter`` dict.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.ch.dch import dch_decrease
from repro.directed.graph import DiRoadNetwork
from repro.directed.h2h import directed_h2h_indexing
from repro.graph.generators import road_network
from repro.h2h import inch2h
from repro.h2h.inch2h import inch2h_decrease, inch2h_increase
from repro.utils.counters import OpCounter

from reference_directed_inch2h import reference_decrease, reference_increase
from test_inch2h_levels import stale_seed_reads

LEVEL = {"increase": inch2h_increase, "decrease": inch2h_decrease}
REFERENCE = {"increase": reference_increase, "decrease": reference_decrease}


def state(index):
    """Labels, supports and the shortcut store's ``phi``, ``phi_G`` and
    supports (the slot weights the level engine reads) as bytes."""
    return (
        index.dis.tobytes(),
        index.sup.tobytes(),
        *(view.tobytes() for view in index.sc.slot_views()),
    )


class Twins:
    """One index maintained by the level path, a clone by the reference."""

    def __init__(self, index):
        self.level = index
        self.reference = index.clone()

    def apply(self, direction, batch):
        results = []
        for run, index in (
            (LEVEL[direction], self.level),
            (REFERENCE[direction], self.reference),
        ):
            ops = OpCounter()
            changed = run(index, batch, ops)
            results.append((changed, ops.as_dict()))
        (changed, ops), (ref_changed, ref_ops) = results
        assert list(changed) == sorted(ref_changed, key=self.order)
        assert len(changed) == len(ref_changed)
        assert ops == ref_ops
        assert state(self.level) == state(self.reference)
        return changed

    def order(self, record):
        """The level engine's order: ``depth(u)``, then direction, ``u``
        and ``depth_a``."""
        (d, u, da), _old, _new = record
        return int(self.level.tree.depth[u]), d, u, da

    def apply_mixed(self, batch):
        sc = self.level.sc
        ups = [(arc, w) for arc, w in batch if w > sc.edge_weight(*arc)]
        downs = [(arc, w) for arc, w in batch if w < sc.edge_weight(*arc)]
        self.apply("increase", ups)
        self.apply("decrease", downs)


def one_way_city(base=None) -> DiRoadNetwork:
    """A road network (*base*, by default ``road_network(110, seed=19)``)
    with about 30% one-way streets and asymmetric two-way ones."""
    if base is None:
        base = road_network(110, seed=19)
    rng = random.Random(5)
    digraph = DiRoadNetwork(base.n)
    for u, v, w in base.edges():
        roll = rng.random()
        if roll < 0.15:
            digraph.add_arc(u, v, w)
        elif roll < 0.30:
            digraph.add_arc(v, u, w)
        else:
            digraph.add_arc(u, v, w)
            digraph.add_arc(v, u, w * rng.choice([1.0, 1.5, 2.0]))
    return digraph


def sample_arcs(digraph, count, seed):
    return random.Random(seed).sample(list(digraph.arcs()), count)


def scenarios(digraph, count, monkeypatch):
    """Every batch shape of the differential, on one digraph; *count*
    arcs per batch."""
    twins = Twins(directed_h2h_indexing(digraph))

    # Increase, decrease and mixed batches.
    first = sample_arcs(digraph, count, seed=1)
    second = sample_arcs(digraph, count, seed=2)
    assert twins.apply("increase", [((u, v), w * 2.0) for u, v, w in first])
    assert twins.apply("decrease", [((u, v), w) for u, v, w in first])
    assert twins.apply("decrease", [((u, v), w * 0.5) for u, v, w in second])
    assert twins.apply("increase", [((u, v), w) for u, v, w in second])
    mixed = sample_arcs(digraph, count, seed=3)
    half = len(mixed) // 2
    twins.apply_mixed(
        [((u, v), w * 2.0) for u, v, w in mixed[:half]]
        + [((u, v), w * 0.5) for u, v, w in mixed[half:]]
    )
    twins.apply_mixed([((u, v), w) for u, v, w in mixed])

    # Only one direction of a two-way road.
    two_way = [(u, v, w) for u, v, w in digraph.arcs() if digraph.has_arc(v, u)]
    one_side = random.Random(4).sample(two_way, min(count, len(two_way)))
    assert twins.apply("increase", [((u, v), w * 3.0) for u, v, w in one_side])
    assert twins.apply("decrease", [((u, v), w) for u, v, w in one_side])
    twins.apply("decrease", [((u, v), w * 0.25) for u, v, w in one_side])
    twins.apply("increase", [((u, v), w) for u, v, w in one_side])

    # Arc deletion via inf, then re-insertion.  Cutting every arc out of
    # a hub makes whole label entries infinite: they must neither
    # support nor relax anything.
    deleted = sample_arcs(digraph, 6, seed=11)
    twins.apply("increase", [((u, v), math.inf) for u, v, _w in deleted])
    hub = max(range(digraph.n), key=lambda x: len(list(digraph.successors(x))))
    cut = [(u, v, w) for u, v, w in digraph.arcs() if u == hub]
    cut = [arc for arc in cut if arc[:2] not in {d[:2] for d in deleted}]
    twins.apply("increase", [((u, v), math.inf) for u, v, _w in cut])
    assert np.isinf(twins.level.dis).any()
    assert np.isinf(twins.level.dis[twins.level.sup > 0]).sum() == 0
    twins.apply("decrease", [((u, v), w) for u, v, w in cut])
    twins.apply("decrease", [((u, v), w) for u, v, w in deleted])

    # A decrease whose seeds read entries the same call improves: the
    # stale terms must leave exactly the reference's labels.
    halved = sample_arcs(digraph, 2 * count, seed=0)
    batch = [((u, v), w * 0.5) for u, v, w in halved]
    probe = twins.level.clone()
    changed_arcs = dch_decrease(probe.sc, batch)
    rows = list(inch2h._seed_rows(probe, changed_arcs, OpCounter(), False))
    changed = twins.apply("decrease", batch)
    assert stale_seed_reads(twins.level, rows, changed) > 0
    twins.apply("increase", [((u, v), w) for u, v, w in halved])

    # Blocks of three entries split levels without changing any result.
    with monkeypatch.context() as patch:
        patch.setattr(inch2h, "LEVEL_CHUNK", 3)
        assert twins.apply("increase", [((u, v), w * 2.0) for u, v, w in first])
        assert twins.apply("decrease", [((u, v), w) for u, v, w in first])

    twins.level.validate()


@pytest.mark.parametrize(
    "size, count",
    [(400, 20), pytest.param(2025, 60, marks=pytest.mark.slow)],
)
def test_level_path_matches_reference_on_road_network(size, count, monkeypatch):
    digraph = DiRoadNetwork.from_undirected(road_network(size), asymmetry=2.0)
    scenarios(digraph, count, monkeypatch)


def test_level_path_matches_reference_on_one_way_city(monkeypatch):
    scenarios(one_way_city(), 12, monkeypatch)
