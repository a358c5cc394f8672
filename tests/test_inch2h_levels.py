"""Differential: level-synchronous IncH2H± against the scalar reference.

:func:`repro.h2h.inch2h.inch2h_increase` / ``inch2h_decrease`` process
one tree depth per numpy pass; ``tests/reference_inch2h.py`` is the
queue-driven scalar form of Algorithms 4-5.  On twin clones of one
index, every batch must leave bit-equal ``dis``/``sup`` and shortcut
state, return the same changed records (the reference's, put in the
level engine's order of ``depth(u)``, ``u``, ``depth_a``), add the same
``OpCounter`` dict and log the same ``work_log`` multiset (the ParIncH2H
report is order-free).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from repro.ch.dch import dch_decrease
from repro.graph.generators import road_network
from repro.h2h import inch2h
from repro.h2h.inch2h import inch2h_decrease, inch2h_increase
from repro.h2h.indexing import h2h_indexing
from repro.utils.counters import OpCounter
from repro.workloads.updates import (
    increase_batch,
    mixed_batch,
    restore_batch,
    sample_edges,
)

from reference_inch2h import reference_decrease, reference_increase

LEVEL = {"increase": inch2h_increase, "decrease": inch2h_decrease}
REFERENCE = {"increase": reference_increase, "decrease": reference_decrease}


def state(index):
    sc = index.sc
    return (
        index.dis.tobytes(),
        index.sup.tobytes(),
        sc.weight_snapshot(),
        sc.support_snapshot(),
        sc.via_snapshot(),
        sc.edge_weights(),
    )


class Twins:
    """One index maintained by the level path, a clone by the reference."""

    def __init__(self, index):
        self.level = index
        self.reference = index.clone()

    def order(self, record):
        """The level engine's order: ``depth(u)``, then ``u``, then
        ``depth_a``."""
        (u, da), _old, _new = record
        return int(self.level.tree.depth[u]), u, da

    def apply(self, direction, batch):
        results = []
        for run, index in (
            (LEVEL[direction], self.level),
            (REFERENCE[direction], self.reference),
        ):
            ops, log = OpCounter(), []
            changed = run(index, batch, ops, work_log=log)
            results.append((changed, ops.as_dict(), Counter(log)))
        (changed, ops, log), (ref_changed, ref_ops, ref_log) = results
        assert list(changed) == sorted(ref_changed, key=self.order)
        assert len(changed) == len(ref_changed)
        assert ops == ref_ops
        assert log == ref_log
        assert state(self.level) == state(self.reference)
        return changed

    def apply_mixed(self, batch):
        sc = self.level.sc
        ups = [(e, w) for e, w in batch if w > sc.edge_weight(*e)]
        downs = [(e, w) for e, w in batch if w < sc.edge_weight(*e)]
        self.apply("increase", ups)
        self.apply("decrease", downs)


def rounds(graph, twins, edges_per_batch):
    first = sample_edges(graph, edges_per_batch, seed=1)
    second = sample_edges(graph, edges_per_batch, seed=2)
    assert twins.apply("increase", increase_batch(first, 2.0))
    assert twins.apply("decrease", restore_batch(first))
    assert twins.apply("decrease", [((u, v), w * 0.5) for u, v, w in second])
    assert twins.apply("increase", restore_batch(second))
    twins.apply_mixed(mixed_batch(graph, edges_per_batch, seed=3))


@pytest.fixture(scope="module")
def road400():
    return road_network(400)


def test_batches_match_reference_on_road_network(road400):
    twins = Twins(h2h_indexing(road400))
    rounds(road400, twins, 20)
    twins.level.validate()


def test_paper_example_matches_reference(paper_graph, paper_h2h):
    twins = Twins(paper_h2h)
    twins.apply("increase", [((5, 8), 3.0)])
    twins.apply("decrease", [((5, 7), 2.0)])  # ties: supports grow
    twins.apply("decrease", [((5, 8), 2.0)])
    for u, v, w in paper_graph.edges():
        twins.apply_mixed([((u, v), w * 3.0)])
        twins.apply_mixed([((u, v), w)])
    twins.level.validate()


def test_deletion_then_reinsertion_matches_reference(road400):
    twins = Twins(h2h_indexing(road400))
    edges = sample_edges(road400, 6, seed=11)
    for u, v, w in edges:
        twins.apply("increase", [((u, v), math.inf)])
    # Cut one vertex off too, so whole distance entries become infinite:
    # they must neither support nor relax anything.
    hub = max(road400.vertices(), key=road400.degree)
    cut = [(hub, v, w) for v, w in road400.neighbor_items(hub)]
    twins.apply("increase", [((u, v), math.inf) for u, v, _w in cut])
    assert np.isinf(twins.level.dis[twins.level.sup > 0]).sum() == 0
    assert np.isinf(twins.level.dis).any()
    others = [e for e in sample_edges(road400, 12, seed=12) if hub not in e[:2]]
    twins.apply("increase", increase_batch(others))
    twins.apply("decrease", restore_batch(others))
    twins.apply("decrease", restore_batch(cut))
    twins.apply("decrease", restore_batch(edges))
    twins.level.validate()


def stale_seed_reads(index, rows, changed) -> int:
    """How many Equation (*) terms of the seed *rows* (``(d, u, v, old,
    new)``, as the engine derives them) read a label entry that the call
    returning *changed* improved.  The seeds read the labels as they were
    before the call, so each such term is stale: the propagation must
    supersede it, and must not apply it twice."""
    tree = index.tree
    n, width = tree.n, index.dis.shape[-1]
    count = index.dis.size // (n * width)
    improved = set(changed.keys.tolist())
    stale = 0
    for d, u, v, _old, _new in rows:
        dv = int(tree.depth[v])
        for da in range(int(tree.depth[u])):
            if da < dv:
                key = (d * n + v) * width + da
            elif da > dv:
                key = ((count - 1 - d) * n + int(tree.anc[u][da])) * width + dv
            else:
                continue  # the zero diagonal of v
            stale += key in improved
    return stale


def test_decrease_seeds_reading_improved_entries_match_reference(road400):
    """A decrease batch whose seeds read entries the same call improves:
    the stale terms must leave exactly the reference's labels."""
    twins = Twins(h2h_indexing(road400))
    edges = sample_edges(road400, 20, seed=0)
    batch = [((u, v), w * 0.5) for u, v, w in edges]
    probe = twins.level.clone()
    rows = list(
        inch2h._seed_rows(probe, dch_decrease(probe.sc, batch), OpCounter(), False)
    )
    changed = twins.apply("decrease", batch)
    assert stale_seed_reads(twins.level, rows, changed) > 0
    twins.level.validate()


def test_level_chunks_do_not_change_results(road400, monkeypatch):
    monkeypatch.setattr(inch2h, "LEVEL_CHUNK", 3)
    twins = Twins(h2h_indexing(road400))
    rounds(road400, twins, 10)


@pytest.mark.parametrize(
    "n, edges_per_batch",
    [pytest.param(2025, 60, marks=pytest.mark.slow), (150, 6)],
)
def test_batches_match_reference_at_mid_size(n, edges_per_batch):
    graph = road_network(n)
    twins = Twins(h2h_indexing(graph))
    rounds(graph, twins, edges_per_batch)
