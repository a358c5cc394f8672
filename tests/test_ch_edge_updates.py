"""Unit tests for CH edge insertion/deletion (Section 7)."""

from __future__ import annotations

import math
import random

import pytest

from repro.baselines.dijkstra import dijkstra
from repro.ch.edge_updates import delete_edge, insert_edge
from repro.ch.indexing import ch_indexing
from repro.ch.query import ch_distance
from repro.errors import UpdateError

from conftest import random_pairs


def non_edge(graph, seed=0):
    rng = random.Random(seed)
    while True:
        u, v = rng.randrange(graph.n), rng.randrange(graph.n)
        if u != v and not graph.has_edge(u, v):
            return u, v


class TestDeletion:
    def test_delete_sets_infinite_weight(self, paper_sc):
        delete_edge(paper_sc, 0, 5)  # (v1, v6): v1's only edge
        assert math.isinf(paper_sc.edge_weight(0, 5))
        assert math.isinf(ch_distance(paper_sc, 0, 8))

    def test_delete_unknown_edge_rejected(self, paper_sc):
        with pytest.raises(UpdateError):
            delete_edge(paper_sc, 0, 8)

    def test_delete_keeps_other_distances(self, medium_road):
        sc = ch_indexing(medium_road)
        u, v, w = next(iter(medium_road.edges()))
        delete_edge(sc, u, v)
        medium_road.remove_edge(u, v)
        for s, t in random_pairs(medium_road.n, 20, seed=1):
            assert ch_distance(sc, s, t) == dijkstra(medium_road, s)[t]

    def test_reinsert_after_delete_is_weight_decrease(self, medium_road):
        sc = ch_indexing(medium_road)
        u, v, w = next(iter(medium_road.edges()))
        delete_edge(sc, u, v)
        from repro.ch.dch import dch_decrease

        dch_decrease(sc, [((u, v), w)])
        fresh = ch_indexing(medium_road, sc.ordering)
        assert sc.weight_snapshot() == fresh.weight_snapshot()


class TestInsertion:
    def test_existing_edge_rejected(self, paper_sc):
        with pytest.raises(UpdateError):
            insert_edge(paper_sc, 2, 4, 1.0)

    def test_self_loop_rejected(self, paper_sc):
        with pytest.raises(UpdateError):
            insert_edge(paper_sc, 3, 3, 1.0)

    def test_negative_weight_rejected(self, paper_sc):
        with pytest.raises(UpdateError):
            insert_edge(paper_sc, 0, 8, -1.0)

    def test_insert_between_adjacent_shortcut_endpoints(self, paper_sc,
                                                        paper_graph):
        # v5 and v7 share a shortcut but no edge; insert a cheap edge.
        new_sc, changed = insert_edge(paper_sc, 4, 6, 1.0)
        assert new_sc == []
        paper_graph.add_edge(4, 6, 1.0)
        for s in range(9):
            dist = dijkstra(paper_graph, s)
            for t in range(9):
                assert ch_distance(paper_sc, s, t) == dist[t]
        paper_sc.validate()

    def test_insert_creating_new_shortcuts(self, paper_sc, paper_graph):
        # v1 (lowest rank, degree 1) to v2: brand-new adjacency.
        new_sc, _ = insert_edge(paper_sc, 0, 1, 2.0)
        assert (0, 1) in new_sc
        paper_graph.add_edge(0, 1, 2.0)
        for s in range(9):
            dist = dijkstra(paper_graph, s)
            for t in range(9):
                assert ch_distance(paper_sc, s, t) == dist[t]
        paper_sc.validate()

    def test_closure_invariant_after_insert(self, medium_road):
        """Every vertex's upward neighbors stay pairwise adjacent."""
        sc = ch_indexing(medium_road)
        u, v = non_edge(medium_road, seed=2)
        insert_edge(sc, u, v, 5.0)
        for x in range(sc.n):
            up = sc.upward(x)
            for i, a in enumerate(up):
                for b in up[i + 1 :]:
                    assert sc.has_shortcut(a, b), (x, a, b)

    def test_insert_matches_fresh_build_weights(self, medium_road):
        sc = ch_indexing(medium_road)
        u, v = non_edge(medium_road, seed=3)
        insert_edge(sc, u, v, 3.0)
        medium_road.add_edge(u, v, 3.0)
        fresh = ch_indexing(medium_road, sc.ordering)
        incremental = sc.weight_snapshot()
        for key, weight in fresh.weight_snapshot().items():
            assert incremental[key] == weight
        sc.validate()

    def test_multiple_inserts(self, medium_road):
        sc = ch_indexing(medium_road)
        for seed in range(4):
            u, v = non_edge(medium_road, seed=100 + seed)
            insert_edge(sc, u, v, float(seed + 1))
            medium_road.add_edge(u, v, float(seed + 1))
        for s, t in random_pairs(medium_road.n, 20, seed=4):
            assert ch_distance(sc, s, t) == dijkstra(medium_road, s)[t]
        sc.validate()

    def test_insert_then_delete_roundtrip_distances(self, medium_road):
        sc = ch_indexing(medium_road)
        before = {
            (s, t): ch_distance(sc, s, t)
            for s, t in random_pairs(medium_road.n, 15, seed=5)
        }
        u, v = non_edge(medium_road, seed=6)
        insert_edge(sc, u, v, 1.0)
        delete_edge(sc, u, v)
        for (s, t), d in before.items():
            assert ch_distance(sc, s, t) == d


class TestInsertOnClone:
    def test_insert_on_clone_leaves_original_intact(self):
        from repro.core.dynamic import DynamicCH
        from repro.graph import grid_network

        original = DynamicCH(grid_network(4, 4, seed=3))
        n = original.graph.n
        up = [list(original.index.upward(u)) for u in range(n)]
        down = [list(original.index.downward(u)) for u in range(n)]
        clone = original.clone()
        new_shortcuts, _changed = insert_edge(clone.index, 0, 15, 1.0)
        assert new_shortcuts  # the insertion changed the clone's structure
        assert [original.index.upward(u) for u in range(n)] == up
        assert [original.index.downward(u) for u in range(n)] == down
        original.index.validate()
        for s, t in random_pairs(n, 30, seed=1) + [(0, 15)]:
            assert original.distance(s, t) == dijkstra(original.graph, s)[t]
        inserted = original.graph.copy()
        inserted.add_edge(0, 15, 1.0)
        clone.index.validate()
        for s, t in random_pairs(n, 30, seed=2) + [(0, 15)]:
            assert ch_distance(clone.index, s, t) == dijkstra(inserted, s)[t]
