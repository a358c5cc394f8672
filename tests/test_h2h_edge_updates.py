"""Unit tests for H2H edge insertion/deletion (Section 7)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra
from repro.errors import UpdateError
from repro.h2h.edge_updates import h2h_delete_edge, h2h_insert_edge
from repro.h2h.indexing import h2h_indexing
from repro.h2h.query import h2h_distance

from conftest import random_pairs


def non_edge(graph, seed=0):
    rng = random.Random(seed)
    while True:
        u, v = rng.randrange(graph.n), rng.randrange(graph.n)
        if u != v and not graph.has_edge(u, v):
            return u, v


class TestDeletion:
    def test_delete_unknown_edge_rejected(self, paper_h2h):
        with pytest.raises(UpdateError):
            h2h_delete_edge(paper_h2h, 0, 8)

    def test_delete_disconnects_leaf(self, paper_h2h):
        h2h_delete_edge(paper_h2h, 0, 5)  # (v1, v6)
        assert math.isinf(h2h_distance(paper_h2h, 0, 8))

    def test_delete_keeps_correct_distances(self, medium_road):
        index = h2h_indexing(medium_road)
        u, v, _ = next(iter(medium_road.edges()))
        h2h_delete_edge(index, u, v)
        medium_road.remove_edge(u, v)
        for s, t in random_pairs(medium_road.n, 25, seed=1):
            assert h2h_distance(index, s, t) == dijkstra(medium_road, s)[t]


class TestInsertion:
    def test_existing_edge_rejected(self, paper_h2h):
        with pytest.raises(UpdateError):
            h2h_insert_edge(paper_h2h, 2, 4, 1.0)

    def test_insert_without_structural_change(self, paper_h2h, paper_graph):
        # v5 and v7 already share a shortcut; the edge only adds weight.
        new_index = h2h_insert_edge(paper_h2h, 4, 6, 1.0)
        paper_graph.add_edge(4, 6, 1.0)
        for s in range(9):
            dist = dijkstra(paper_graph, s)
            for t in range(9):
                assert h2h_distance(new_index, s, t) == dist[t]
        new_index.validate()

    def test_insert_with_new_shortcuts(self, paper_h2h, paper_graph):
        new_index = h2h_insert_edge(paper_h2h, 0, 1, 2.0)  # (v1, v2)
        paper_graph.add_edge(0, 1, 2.0)
        for s in range(9):
            dist = dijkstra(paper_graph, s)
            for t in range(9):
                assert h2h_distance(new_index, s, t) == dist[t]
        new_index.validate()
        new_index.tree.validate()

    def test_insert_matches_full_rebuild(self, medium_road):
        index = h2h_indexing(medium_road)
        u, v = non_edge(medium_road, seed=2)
        new_index = h2h_insert_edge(index, u, v, 4.0)
        medium_road.add_edge(u, v, 4.0)
        from repro.ch.indexing import ch_indexing
        from repro.h2h.indexing import fill_distance_arrays
        from repro.h2h.tree import TreeDecomposition

        sc = ch_indexing(medium_road, index.sc.ordering)
        fresh = fill_distance_arrays(sc, TreeDecomposition(sc))
        assert np.array_equal(new_index.dis, fresh.dis)
        assert np.array_equal(new_index.sup, fresh.sup)

    def test_multiple_inserts_then_queries(self, medium_road):
        index = h2h_indexing(medium_road)
        for seed in range(3):
            u, v = non_edge(medium_road, seed=200 + seed)
            index = h2h_insert_edge(index, u, v, float(2 + seed))
            medium_road.add_edge(u, v, float(2 + seed))
        for s, t in random_pairs(medium_road.n, 25, seed=3):
            assert h2h_distance(index, s, t) == dijkstra(medium_road, s)[t]
        index.validate()

    def test_insert_then_weight_updates_compose(self, medium_road):
        from repro.h2h.inch2h import inch2h_increase
        from repro.workloads.updates import increase_batch, sample_edges

        index = h2h_indexing(medium_road)
        u, v = non_edge(medium_road, seed=4)
        index = h2h_insert_edge(index, u, v, 2.0)
        medium_road.add_edge(u, v, 2.0)
        edges = sample_edges(medium_road, 6, seed=5)
        batch = increase_batch(edges, 2.0)
        inch2h_increase(index, batch)
        medium_road.apply_batch(batch)
        for s, t in random_pairs(medium_road.n, 20, seed=6):
            assert h2h_distance(index, s, t) == dijkstra(medium_road, s)[t]
        index.validate()


class TestInsertOnClone:
    def test_insert_on_clone_leaves_original_intact(self):
        from repro.core.dynamic import DynamicH2H
        from repro.graph import grid_network

        original = DynamicH2H(grid_network(4, 4, seed=3))
        n = original.graph.n
        sc = original.index.sc
        up = [list(sc.upward(u)) for u in range(n)]
        down = [list(sc.downward(u)) for u in range(n)]
        dis = original.index.dis.copy()
        clone = original.clone()
        inserted_index = h2h_insert_edge(clone.index, 0, 15, 1.0)
        assert inserted_index.sc.num_shortcuts > sc.num_shortcuts
        assert [sc.upward(u) for u in range(n)] == up
        assert [sc.downward(u) for u in range(n)] == down
        assert np.array_equal(original.index.dis, dis)
        sc.validate()
        original.index.validate()
        for s, t in random_pairs(n, 30, seed=1) + [(0, 15)]:
            assert original.distance(s, t) == dijkstra(original.graph, s)[t]
        inserted = original.graph.copy()
        inserted.add_edge(0, 15, 1.0)
        inserted_index.validate()
        for s, t in random_pairs(n, 30, seed=2) + [(0, 15)]:
            assert h2h_distance(inserted_index, s, t) == dijkstra(inserted, s)[t]
