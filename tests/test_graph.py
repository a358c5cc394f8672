"""Unit tests for the RoadNetwork graph type."""

from __future__ import annotations

import math

import pytest

from repro.errors import GraphError, QueryError
from repro.graph.generators import road_network
from repro.graph.graph import INFINITY, RoadNetwork, canonical_edge


class TestConstruction:
    def test_empty_graph(self):
        g = RoadNetwork(0)
        assert g.n == 0
        assert g.m == 0

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            RoadNetwork(-1)

    def test_from_edges(self):
        g = RoadNetwork.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert g.m == 2
        assert g.weight(0, 1) == 2.0

    def test_copy_is_independent(self):
        g = RoadNetwork.from_edges(2, [(0, 1, 5.0)])
        clone = g.copy()
        clone.set_weight(0, 1, 9.0)
        assert g.weight(0, 1) == 5.0

    def test_copy_equals_original(self):
        g = RoadNetwork.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert g.copy() == g

    def test_mutating_the_copy_leaves_the_original_intact(self):
        g = road_network(60, seed=4)
        before = sorted(g.edges())
        clone = g.copy()
        (a, b, w), (c, d, _w) = before[:2]
        clone.set_weight(a, b, w * 3)
        clone.remove_edge(c, d)
        u, x = next(
            (u, x) for u in g.vertices() for x in g.vertices()
            if u < x and not g.has_edge(u, x)
        )
        clone.add_edge(u, x, 1.0)
        assert sorted(g.edges()) == before
        assert g.m == len(before)
        assert not g.has_edge(u, x) and g.has_edge(c, d)

    def test_repr(self):
        assert repr(RoadNetwork(3)) == "RoadNetwork(n=3, m=0)"


class TestEdges:
    def test_add_edge_is_symmetric(self):
        g = RoadNetwork(2)
        g.add_edge(0, 1, 4.0)
        assert g.weight(0, 1) == g.weight(1, 0) == 4.0

    def test_self_loop_rejected(self):
        g = RoadNetwork(2)
        with pytest.raises(GraphError):
            g.add_edge(1, 1, 1.0)

    def test_duplicate_edge_rejected(self):
        g = RoadNetwork(2)
        g.add_edge(0, 1, 1.0)
        with pytest.raises(GraphError):
            g.add_edge(1, 0, 2.0)

    def test_negative_weight_rejected(self):
        g = RoadNetwork(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, -1.0)

    def test_nan_weight_rejected(self):
        g = RoadNetwork(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, float("nan"))

    def test_non_numeric_weight_rejected(self):
        g = RoadNetwork(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, "heavy")  # type: ignore[arg-type]

    def test_infinite_weight_allowed(self):
        g = RoadNetwork(2)
        g.add_edge(0, 1, INFINITY)
        assert math.isinf(g.weight(0, 1))

    def test_missing_edge_weight_raises(self):
        g = RoadNetwork(3)
        with pytest.raises(GraphError):
            g.weight(0, 2)

    def test_vertex_out_of_range(self):
        g = RoadNetwork(3)
        with pytest.raises(QueryError):
            g.weight(0, 7)
        with pytest.raises(QueryError):
            g.degree(-1)

    def test_remove_edge(self):
        g = RoadNetwork.from_edges(2, [(0, 1, 3.0)])
        assert g.remove_edge(0, 1) == 3.0
        assert g.m == 0
        assert not g.has_edge(0, 1)

    def test_edges_iterates_canonically(self):
        g = RoadNetwork.from_edges(3, [(2, 0, 1.0), (1, 2, 2.0)])
        assert sorted(g.edges()) == [(0, 2, 1.0), (1, 2, 2.0)]

    def test_degree_and_neighbors(self):
        g = RoadNetwork.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        assert g.degree(0) == 3
        assert sorted(g.neighbors(0)) == [1, 2, 3]
        assert dict(g.neighbor_items(1)) == {0: 1.0}


class TestWeightUpdates:
    def test_set_weight_returns_old(self):
        g = RoadNetwork.from_edges(2, [(0, 1, 3.0)])
        assert g.set_weight(0, 1, 7.0) == 3.0
        assert g.weight(1, 0) == 7.0

    def test_set_weight_missing_edge(self):
        g = RoadNetwork(2)
        with pytest.raises(GraphError):
            g.set_weight(0, 1, 7.0)

    def test_apply_batch_returns_inverse(self):
        g = RoadNetwork.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
        inverse = g.apply_batch([((0, 1), 10.0), ((1, 2), 20.0)])
        assert g.weight(0, 1) == 10.0
        g.apply_batch(inverse)
        assert g.weight(0, 1) == 1.0
        assert g.weight(1, 2) == 2.0


class TestStructure:
    def test_connected_components(self):
        g = RoadNetwork.from_edges(5, [(0, 1, 1.0), (2, 3, 1.0)])
        components = sorted(sorted(c) for c in g.connected_components())
        assert components == [[0, 1], [2, 3], [4]]

    def test_is_connected_true(self):
        g = RoadNetwork.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert g.is_connected()

    def test_is_connected_false(self):
        assert not RoadNetwork(2).is_connected()

    def test_single_vertex_connected(self):
        assert RoadNetwork(1).is_connected()

    def test_total_weight(self):
        g = RoadNetwork.from_edges(3, [(0, 1, 1.5), (1, 2, 2.5)])
        assert g.total_weight() == 4.0

    def test_canonical_edge(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)
