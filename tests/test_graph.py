"""Unit tests for the RoadNetwork graph type."""

from __future__ import annotations

import math
import random
import sys
import threading

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


class TestCopyOnWriteRows:
    """copy() shares every adjacency row; whichever side writes a row
    first gets a private copy of it, so no write crosses over."""

    @staticmethod
    def _shared(a, b):
        return [u for u in a.vertices() if a._adj[u] is b._adj[u]]

    def test_write_to_the_parent_leaves_the_copy_unchanged(self):
        g = road_network(40, seed=2)
        u, v, w = next(iter(g.edges()))
        clone = g.copy()
        g.set_weight(u, v, w + 7)
        assert clone.weight(u, v) == w and clone.weight(v, u) == w
        assert g.weight(v, u) == w + 7
        assert self._shared(g, clone) == [x for x in g.vertices() if x not in (u, v)]

    def test_write_to_the_copy_leaves_the_parent_unchanged(self):
        g = road_network(40, seed=2)
        before = sorted(g.edges())
        u, v, w = before[3]
        clone = g.copy()
        clone.apply_batch([((u, v), w * 2)])
        assert sorted(g.edges()) == before
        assert clone.weight(v, u) == w * 2
        # A second write to an owned row copies nothing more.
        row = clone._adj[u]
        clone.set_weight(u, v, w * 3)
        assert clone._adj[u] is row
        assert g.weight(u, v) == w

    def test_three_deep_chain(self):
        g = road_network(40, seed=2)
        u, v, w = next(iter(g.edges()))
        b = g.copy()
        b.set_weight(u, v, w + 1)
        c = b.copy()
        c.set_weight(u, v, w + 2)
        d = c.copy()
        d.set_weight(u, v, w + 3)
        b.set_weight(u, v, w + 10)  # b copied again after c shared it
        assert [x.weight(u, v) for x in (g, b, c, d)] == [w, w + 10, w + 2, w + 3]
        assert [x.weight(v, u) for x in (g, b, c, d)] == [w, w + 10, w + 2, w + 3]
        assert c._adj[u] is not d._adj[u]
        others = [x for x in g.vertices() if x not in (u, v)]
        assert self._shared(g, d) == others

    @pytest.mark.parametrize("writer", ["parent", "copy"])
    def test_add_and_remove_edge_on_either_side(self, writer):
        g = road_network(40, seed=2)
        before, m = sorted(g.edges()), g.m
        a, b, _w = before[0]
        x, y = next(
            (x, y) for x in g.vertices() for y in g.vertices()
            if x < y and not g.has_edge(x, y)
        )
        clone = g.copy()
        side, other = (g, clone) if writer == "parent" else (clone, g)
        side.remove_edge(a, b)
        side.add_edge(x, y, 4.0)
        assert sorted(other.edges()) == before and other.m == m
        assert other.has_edge(a, b) and not other.has_edge(x, y)
        assert not side.has_edge(b, a) and side.weight(y, x) == 4.0
        assert side.m == m
        assert set(g.vertices()) - set(self._shared(g, clone)) == {a, b, x, y}

    def test_rejected_batch_leaves_every_row_shared(self):
        g = road_network(40, seed=2)
        (u, v, w), (p, q, _w) = list(g.edges())[:2]
        clone = g.copy()
        with pytest.raises(GraphError):
            clone.apply_batch([((u, v), w * 2), ((p, q), -1.0)])
        assert self._shared(g, clone) == list(g.vertices())
        assert clone == g

    def test_readers_of_copies_race_a_writer(self):
        """Readers sum every epoch of a copy chain while a writer copies
        and writes the newest (more threads than cores, a short switch
        interval): each epoch keeps the total it had when published."""
        graph = road_network(120, seed=3)
        edges = list(graph.edges())
        published = [(graph, graph.total_weight())]
        stop = threading.Event()
        errors: list = []

        def reader(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                g, total = published[rng.randrange(len(published))]
                if g.total_weight() != total:
                    errors.append((seed, total))
                    return

        threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            rng = random.Random(9)
            current = graph
            for _ in range(60):
                current = current.copy()
                batch = [((u, v), w * rng.choice([0.5, 2.0]))
                         for u, v, w in rng.sample(edges, 3)]
                current.apply_batch(batch)
                published.append((current, current.total_weight()))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors

    def test_one_edge_publish_copies_two_rows(self):
        """A DynamicCH clone plus a one-edge apply copies exactly the
        edge's two endpoint rows; every other row stays shared."""
        from repro.core.dynamic import DynamicCH

        oracle = DynamicCH(road_network(60, seed=5))
        u, v, w = sorted(oracle.graph.edges())[7]
        nxt = oracle.clone()
        nxt.apply([((u, v), w * 2)])
        parent, child = oracle.graph._adj, nxt.graph._adj
        assert child[u] is not parent[u] and child[v] is not parent[v]
        assert self._shared(oracle.graph, nxt.graph) == [
            x for x in oracle.graph.vertices() if x not in (u, v)
        ]
        assert oracle.graph.weight(u, v) == w and nxt.graph.weight(u, v) == w * 2


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
