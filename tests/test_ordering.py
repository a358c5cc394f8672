"""Unit tests for vertex orderings and the minimum degree heuristic."""

from __future__ import annotations

import pytest

from repro.errors import DisconnectedGraphError, OrderingError
from repro.graph.generators import grid_network, road_network
from repro.graph.graph import RoadNetwork
from repro.order.min_degree import eliminate, minimum_degree_ordering
from repro.order.ordering import Ordering, degree_ordering, random_ordering


class TestOrdering:
    def test_rank_inverse_of_order(self):
        pi = Ordering([2, 0, 1])
        assert pi.order[pi.rank[0]] == 0
        assert pi.rank == [1, 2, 0]

    def test_top(self):
        assert Ordering([2, 0, 1]).top() == 1

    def test_empty_top_raises(self):
        with pytest.raises(OrderingError):
            Ordering([]).top()

    def test_higher(self):
        pi = Ordering([0, 1, 2])
        assert pi.higher(2, 0)
        assert not pi.higher(0, 2)

    def test_not_a_permutation_rejected(self):
        with pytest.raises(OrderingError):
            Ordering([0, 0, 1])
        with pytest.raises(OrderingError):
            Ordering([0, 3])

    def test_equality(self):
        assert Ordering([0, 1]) == Ordering([0, 1])
        assert Ordering([0, 1]) != Ordering([1, 0])

    def test_len(self):
        assert len(Ordering([1, 0, 2])) == 3


class TestMinimumDegree:
    def test_covers_all_vertices(self):
        g = grid_network(4, 4, seed=1)
        pi = minimum_degree_ordering(g)
        assert sorted(pi.order) == list(range(g.n))

    def test_path_graph_contracts_inward(self):
        # On a path, endpoints have degree 1 and go first.
        g = RoadNetwork.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        pi = minimum_degree_ordering(g)
        assert pi.order[0] in (0, 3)

    def test_star_center_contracted_late(self):
        # Leaves (degree 1) go first; the center survives until only it
        # and the last leaf remain (both then have degree 1).
        g = RoadNetwork.from_edges(5, [(0, i, 1.0) for i in range(1, 5)])
        pi = minimum_degree_ordering(g)
        assert pi.rank[0] >= 3

    def test_deterministic(self):
        g = road_network(120, seed=5)
        assert minimum_degree_ordering(g) == minimum_degree_ordering(g)

    def test_disconnected_rejected(self):
        g = RoadNetwork(3)
        with pytest.raises(DisconnectedGraphError):
            minimum_degree_ordering(g)

    def test_disconnected_allowed_when_requested(self):
        g = RoadNetwork(3)
        pi = minimum_degree_ordering(g, require_connected=False)
        assert sorted(pi.order) == [0, 1, 2]

    def test_weight_independence(self):
        """The ordering must not depend on weights (Section 2)."""
        g1 = grid_network(5, 5, seed=1)
        g2 = g1.copy()
        for u, v, w in list(g2.edges()):
            g2.set_weight(u, v, w * 3 + 1)
        assert minimum_degree_ordering(g1) == minimum_degree_ordering(g2)

    def test_fill_edges_are_new(self):
        g = grid_network(4, 4, seed=2)
        _, fill = eliminate(g)
        for u, v in fill:
            assert u < v
            assert not g.has_edge(u, v)

    def test_tree_has_no_fill(self):
        g = RoadNetwork.from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0),
                                       (3, 4, 1.0)])
        _, fill = eliminate(g)
        assert fill == []

    def test_cycle_has_fill(self):
        g = RoadNetwork.from_edges(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
        )
        _, fill = eliminate(g)
        assert len(fill) == 1


class TestGivenOrderElimination:
    def test_reproduces_the_minimum_degree_fill(self):
        g = road_network(200, seed=4)
        ordering, fill = eliminate(g)
        again, given_fill = eliminate(g, ordering)
        assert again is ordering
        assert sorted(given_fill) == sorted(fill)

    def test_fill_is_canonical_and_new(self):
        g = grid_network(5, 5, seed=2)
        _, fill = eliminate(g, random_ordering(g, seed=5))
        assert fill
        assert len(set(fill)) == len(fill)
        assert all(u < v and not g.has_edge(u, v) for u, v in fill)

    def test_star_center_first_cliques_the_leaves(self):
        g = RoadNetwork.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        _, fill = eliminate(g, Ordering([0, 1, 2, 3]))
        assert sorted(fill) == [(1, 2), (1, 3), (2, 3)]

    def test_wrong_length_rejected(self):
        with pytest.raises(OrderingError):
            eliminate(grid_network(3, 3, seed=0), Ordering([0, 1, 2]))


class TestAlternativeOrderings:
    def test_degree_ordering_sorted_by_degree(self):
        g = RoadNetwork.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        pi = degree_ordering(g)
        assert pi.top() == 0  # highest degree last

    def test_random_ordering_is_permutation(self):
        g = grid_network(3, 3, seed=0)
        pi = random_ordering(g, seed=1)
        assert sorted(pi.order) == list(range(9))

    def test_random_ordering_deterministic_by_seed(self):
        g = grid_network(3, 3, seed=0)
        assert random_ordering(g, seed=1) == random_ordering(g, seed=1)
        assert random_ordering(g, seed=1) != random_ordering(g, seed=2)
