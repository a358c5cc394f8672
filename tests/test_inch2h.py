"""Unit tests for IncH2H+ (Algorithm 4) and IncH2H- (Algorithm 5)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra
from repro.ch.indexing import ch_indexing
from repro.errors import UpdateError
from repro.h2h.inch2h import inch2h_decrease, inch2h_increase
from repro.h2h.indexing import fill_distance_arrays, h2h_indexing
from repro.h2h.query import h2h_distance
from repro.h2h.tree import TreeDecomposition
from repro.utils.counters import OpCounter
from repro.workloads.updates import increase_batch, restore_batch, sample_edges

from conftest import random_pairs


def assert_equals_rebuild(index, graph):
    """The maintained index must exactly match a from-scratch rebuild."""
    sc = ch_indexing(graph, index.sc.ordering)
    fresh = fill_distance_arrays(sc, TreeDecomposition(sc))
    assert np.array_equal(index.dis, fresh.dis)
    assert np.array_equal(index.sup, fresh.sup)


class TestValidation:
    def test_unknown_edge(self, paper_h2h):
        with pytest.raises(UpdateError):
            inch2h_increase(paper_h2h, [((0, 8), 9.0)])

    def test_wrong_direction(self, paper_h2h):
        with pytest.raises(UpdateError):
            inch2h_increase(paper_h2h, [((2, 4), 0.5)])
        with pytest.raises(UpdateError):
            inch2h_decrease(paper_h2h, [((2, 4), 9.0)])


class TestIncrease:
    def test_equals_rebuild(self, medium_road):
        index = h2h_indexing(medium_road)
        edges = sample_edges(medium_road, 12, seed=1)
        batch = increase_batch(edges, 2.0)
        inch2h_increase(index, batch)
        medium_road.apply_batch(batch)
        assert_equals_rebuild(index, medium_road)

    def test_queries_after_increase(self, medium_road):
        index = h2h_indexing(medium_road)
        edges = sample_edges(medium_road, 10, seed=2)
        batch = increase_batch(edges, 4.0)
        inch2h_increase(index, batch)
        medium_road.apply_batch(batch)
        for s, t in random_pairs(medium_road.n, 30, seed=3):
            assert h2h_distance(index, s, t) == dijkstra(medium_road, s)[t]

    def test_changed_list_has_old_and_new(self, paper_h2h):
        changed = inch2h_increase(paper_h2h, [((5, 8), 3.0)])
        entry = next(c for c in changed if c[0] == (5, 0))
        assert entry[1] == 2.0 and entry[2] == 3.0

    def test_noop_when_shortcut_unaffected(self, medium_road):
        # Make a slack edge: raise (u, v) above its best valley detour
        # (u, t, v through a lower t), so the shortcut <u, v> keeps the
        # detour's weight whatever the edge adds.
        sc = ch_indexing(medium_road)
        u, v, detour = next(
            (u, v, min(sc.weight(t, u) + sc.weight(t, v) for t in sc.scp_minus(u, v)))
            for u, v, _w in medium_road.edges()
            if any(True for _t in sc.scp_minus(u, v))
        )
        medium_road.set_weight(u, v, detour + 1.0)
        index = h2h_indexing(medium_road, sc.ordering)
        sc = index.sc
        assert sc.weight(u, v) == detour < sc.edge_weight(u, v)
        before = (sc.slot_weights.tobytes(), sc.slot_views()[2].tobytes(),
                  index.dis.tobytes(), index.sup.tobytes())
        assert len(inch2h_increase(index, [((u, v), detour + 2.0)])) == 0
        assert (sc.slot_weights.tobytes(), sc.slot_views()[2].tobytes(),
                index.dis.tobytes(), index.sup.tobytes()) == before

    def test_work_log_records_levels(self, paper_h2h):
        log: list = []
        inch2h_increase(paper_h2h, [((5, 8), 3.0)], work_log=log)
        assert log
        for level, u, cost in log:
            assert level == int(paper_h2h.tree.depth[u])
            assert cost >= 0


class TestDecrease:
    def test_equals_rebuild(self, medium_road):
        index = h2h_indexing(medium_road)
        edges = sample_edges(medium_road, 12, seed=4)
        batch = [((u, v), w * 0.3) for u, v, w in edges]
        inch2h_decrease(index, batch)
        medium_road.apply_batch(batch)
        assert_equals_rebuild(index, medium_road)

    def test_roundtrip_restores_everything(self, medium_road):
        index = h2h_indexing(medium_road)
        dis_before = index.dis.copy()
        sup_before = index.sup.copy()
        edges = sample_edges(medium_road, 15, seed=5)
        inch2h_increase(index, increase_batch(edges, 2.0))
        inch2h_decrease(index, restore_batch(edges))
        assert np.array_equal(index.dis, dis_before)
        assert np.array_equal(index.sup, sup_before)

    def test_tie_support_maintained(self, paper_h2h):
        """Decrease that creates equal-weight alternatives must raise sup."""
        inch2h_decrease(paper_h2h, [((5, 7), 2.0)])  # (v6, v8) 7 -> 2
        paper_h2h.validate()

    def test_queries_after_decrease(self, medium_road):
        index = h2h_indexing(medium_road)
        edges = sample_edges(medium_road, 10, seed=6)
        batch = [((u, v), w * 0.5) for u, v, w in edges]
        inch2h_decrease(index, batch)
        medium_road.apply_batch(batch)
        for s, t in random_pairs(medium_road.n, 30, seed=7):
            assert h2h_distance(index, s, t) == dijkstra(medium_road, s)[t]


class TestMixedSequences:
    def test_alternating_rounds_stay_exact(self, medium_road):
        index = h2h_indexing(medium_road)
        rng = random.Random(8)
        for round_id in range(5):
            edges = sample_edges(medium_road, 8, seed=round_id + 50)
            factor = rng.choice([1.2, 2.0, 5.0])
            batch = increase_batch(edges, factor)
            inch2h_increase(index, batch)
            medium_road.apply_batch(batch)
            index.validate()
            inch2h_decrease(index, restore_batch(edges))
            medium_road.apply_batch(restore_batch(edges))
            index.validate()

    def test_unit_weight_graph_ties(self):
        """All-equal weights maximize tie churn in support bookkeeping."""
        from repro.graph.generators import grid_network

        g = grid_network(6, 6, seed=0, min_weight=4, max_weight=4)
        index = h2h_indexing(g)
        edges = sample_edges(g, 6, seed=1)
        inch2h_increase(index, increase_batch(edges, 2.0))
        index.validate()
        inch2h_decrease(index, restore_batch(edges))
        index.validate()
        assert_equals_rebuild(index, g)


class TestDeletions:
    def test_delete_and_reinsert(self, medium_road):
        index = h2h_indexing(medium_road)
        dis_before = index.dis.copy()
        u, v, w = next(iter(medium_road.edges()))
        inch2h_increase(index, [((u, v), math.inf)])
        assert index.dis is not None
        inch2h_decrease(index, [((u, v), w)])
        assert np.array_equal(index.dis, dis_before)

    def test_updates_after_deletion_keep_supports_exact(self, medium_road):
        """Regression: an infinite shortcut leg must never decrement the
        support of an entry that is itself infinite (inf == inf)."""
        index = h2h_indexing(medium_road)
        u, v, w = next(iter(medium_road.edges()))
        inch2h_increase(index, [((u, v), math.inf)])
        index.validate()
        others = [e for e in medium_road.edges() if (e[0], e[1]) != (u, v)]
        sample = others[:6]
        inch2h_increase(index, [((a, b), x * 2.0) for a, b, x in sample])
        index.validate()
        inch2h_decrease(index, [((a, b), float(x)) for a, b, x in sample])
        index.validate()
        inch2h_decrease(index, [((u, v), float(w))])
        index.validate()


class TestInstrumentation:
    def test_increase_channels(self, medium_road):
        index = h2h_indexing(medium_road)
        ops = OpCounter()
        edges = sample_edges(medium_road, 5, seed=9)
        inch2h_increase(index, increase_batch(edges, 2.0), ops)
        assert ops["anc_scan"] > 0
        assert ops["queue_pop"] > 0
        assert ops["star_term"] > 0  # line 23 recomputations

    def test_decrease_channels(self, medium_road):
        index = h2h_indexing(medium_road)
        edges = sample_edges(medium_road, 5, seed=9)
        inch2h_increase(index, increase_batch(edges, 2.0))
        ops = OpCounter()
        inch2h_decrease(index, restore_batch(edges), ops)
        assert ops["anc_scan"] > 0
        assert ops["dependent_inspect"] > 0
