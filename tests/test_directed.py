"""Tests for the directed extension (Section 2's directed-case note)."""

from __future__ import annotations

import math
import random

import pytest

from repro.ch.query import ch_distance
from repro.directed.ch import directed_ch_indexing
from repro.ch.dch import dch_decrease, dch_increase
from repro.directed.dijkstra import directed_dijkstra, directed_distance
from repro.directed.graph import DiRoadNetwork
from repro.errors import GraphError, IndexError_, QueryError, UpdateError


class TestDiRoadNetwork:
    def test_one_way_arc(self):
        g = DiRoadNetwork(2)
        g.add_arc(0, 1, 3.0)
        assert g.has_arc(0, 1) and not g.has_arc(1, 0)

    def test_duplicate_arc_rejected(self):
        g = DiRoadNetwork(2)
        g.add_arc(0, 1, 3.0)
        with pytest.raises(GraphError):
            g.add_arc(0, 1, 4.0)

    def test_opposite_arcs_independent(self):
        g = DiRoadNetwork(2)
        g.add_arc(0, 1, 3.0)
        g.add_arc(1, 0, 7.0)
        assert g.weight(0, 1) == 3.0 and g.weight(1, 0) == 7.0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            DiRoadNetwork(2).add_arc(1, 1, 1.0)

    def test_missing_weight_raises(self):
        with pytest.raises(GraphError):
            DiRoadNetwork(3).weight(0, 1)

    def test_set_weight(self):
        g = DiRoadNetwork(2)
        g.add_arc(0, 1, 3.0)
        assert g.set_weight(0, 1, 9.0) == 3.0
        assert g.weight(0, 1) == 9.0
        assert dict(g.predecessors(1)) == {0: 9.0}

    def test_from_undirected_asymmetry(self, medium_road):
        g = DiRoadNetwork.from_undirected(medium_road, asymmetry=2.0)
        u, v, w = next(iter(medium_road.edges()))
        assert g.weight(u, v) == w
        assert g.weight(v, u) == 2.0 * w

    def test_symmetrized_takes_min(self):
        g = DiRoadNetwork(2)
        g.add_arc(0, 1, 5.0)
        g.add_arc(1, 0, 3.0)
        assert g.symmetrized().weight(0, 1) == 3.0

    def test_strong_connectivity(self):
        g = DiRoadNetwork(3)
        g.add_arc(0, 1, 1.0)
        g.add_arc(1, 2, 1.0)
        assert not g.is_strongly_connected()
        g.add_arc(2, 0, 1.0)
        assert g.is_strongly_connected()

    def test_copy_independent(self, one_way_city):
        clone = one_way_city.copy()
        u, v, _ = next(iter(one_way_city.arcs()))
        clone.set_weight(u, v, 999.0)
        assert one_way_city.weight(u, v) != 999.0

    def test_mutating_the_copy_leaves_the_original_intact(self, one_way_city):
        before = sorted(one_way_city.arcs())
        preds = [dict(one_way_city.predecessors(v)) for v in range(one_way_city.n)]
        clone = one_way_city.copy()
        assert clone == one_way_city
        a, b, w = before[0]
        clone.set_weight(a, b, w * 3)
        tail, head = next(
            (u, x) for u in range(clone.n) for x in range(clone.n)
            if u != x and not one_way_city.has_arc(u, x)
        )
        clone.add_arc(tail, head, 1.0)
        assert sorted(one_way_city.arcs()) == before
        assert one_way_city.m == len(before)
        assert [
            dict(one_way_city.predecessors(v)) for v in range(one_way_city.n)
        ] == preds


def _shared_rows(a, b):
    """Vertices whose out-row and in-row are the same objects in *a* and *b*."""
    return [
        u for u in range(a.n) if a._out[u] is b._out[u] and a._in[u] is b._in[u]
    ]


class TestDiCopyOnWriteRows:
    """DiRoadNetwork.copy() shares out- and in-rows until first written."""

    @pytest.mark.parametrize("writer", ["parent", "copy"])
    def test_write_on_either_side_stays_there(self, one_way_city, writer):
        g = one_way_city.copy()
        before = sorted(g.arcs())
        u, v, w = before[0]
        clone = g.copy()
        side, other = (g, clone) if writer == "parent" else (clone, g)
        side.set_weight(u, v, w * 3)
        assert sorted(other.arcs()) == before
        assert dict(other.predecessors(v))[u] == w
        assert dict(side.predecessors(v))[u] == w * 3
        # Only u's out-row and v's in-row were copied.
        assert g._out[u] is not clone._out[u] and g._in[v] is not clone._in[v]
        assert g._in[u] is clone._in[u] and g._out[v] is clone._out[v]
        assert _shared_rows(g, clone) == [x for x in range(g.n) if x not in (u, v)]

    @pytest.mark.parametrize("writer", ["parent", "copy"])
    def test_add_arc_on_either_side(self, one_way_city, writer):
        g = one_way_city.copy()
        before, m = sorted(g.arcs()), g.m
        tail, head = next(
            (u, x) for u in range(g.n) for x in range(g.n)
            if u != x and not g.has_arc(u, x)
        )
        clone = g.copy()
        side, other = (g, clone) if writer == "parent" else (clone, g)
        side.add_arc(tail, head, 1.0)
        assert sorted(other.arcs()) == before and other.m == m
        assert not other.has_arc(tail, head) and head not in dict(other.successors(tail))
        assert tail not in dict(other.predecessors(head))
        assert side.m == m + 1 and dict(side.predecessors(head))[tail] == 1.0

    def test_three_deep_chain(self, one_way_city):
        u, v, w = next(iter(one_way_city.arcs()))
        chain = [one_way_city.copy()]
        for k in range(1, 4):
            chain.append(chain[-1].copy())
            chain[-1].set_weight(u, v, w + k)
        chain[1].set_weight(u, v, w + 10)
        assert [g.weight(u, v) for g in chain] == [w, w + 10, w + 2, w + 3]
        assert [dict(g.predecessors(v))[u] for g in chain] == [w, w + 10, w + 2, w + 3]

    def test_facade_clone_copies_only_written_rows(self, one_way_city):
        """A directed facade's clone plus a one-arc apply copies the
        arc's two rows; the parent keeps its weight."""
        from repro.directed.dynamic import DynamicDiCH

        oracle = DynamicDiCH(one_way_city.copy())
        u, v, w = sorted(oracle.graph.arcs())[5]
        nxt = oracle.clone()
        nxt.apply([((u, v), w * 2)])
        assert _shared_rows(oracle.graph, nxt.graph) == [
            x for x in range(one_way_city.n) if x not in (u, v)
        ]
        assert oracle.graph.weight(u, v) == w and nxt.graph.weight(u, v) == w * 2


class TestDirectedDijkstra:
    def test_asymmetric_distances(self):
        g = DiRoadNetwork(3)
        g.add_arc(0, 1, 1.0)
        g.add_arc(1, 2, 1.0)
        g.add_arc(2, 0, 10.0)
        assert directed_distance(g, 0, 2) == 2.0
        assert directed_distance(g, 2, 0) == 10.0

    def test_reverse_search(self, one_way_city):
        t = 5
        into_t = directed_dijkstra(one_way_city, t, reverse=True)
        for s in range(0, one_way_city.n, 17):
            assert into_t[s] == directed_distance(one_way_city, s, t)

    def test_invalid_source(self, one_way_city):
        with pytest.raises(QueryError):
            directed_dijkstra(one_way_city, -1)


class TestDirectedCH:
    def test_queries_match_dijkstra(self, one_way_city):
        index = directed_ch_indexing(one_way_city)
        rng = random.Random(1)
        for _ in range(60):
            s, t = rng.randrange(one_way_city.n), rng.randrange(one_way_city.n)
            assert ch_distance(index, s, t) == directed_distance(
                one_way_city, s, t
            )

    def test_asymmetric_shortcut_weights(self):
        g = DiRoadNetwork(3)
        g.add_arc(0, 1, 1.0)
        g.add_arc(1, 0, 5.0)
        g.add_arc(1, 2, 1.0)
        g.add_arc(2, 1, 5.0)
        from repro.order.ordering import Ordering

        index = directed_ch_indexing(g, Ordering([1, 0, 2]))
        # Contracting v1 creates the shortcut {0, 2} with both weights.
        assert index.weight(0, 2) == 2.0
        assert index.weight(2, 0) == 10.0

    def test_one_way_gives_infinite_reverse(self):
        g = DiRoadNetwork(2)
        g.add_arc(0, 1, 4.0)
        index = directed_ch_indexing(g)
        assert ch_distance(index, 0, 1) == 4.0
        assert math.isinf(ch_distance(index, 1, 0))

    def test_validates(self, one_way_city):
        directed_ch_indexing(one_way_city).validate()

    @pytest.mark.parametrize(
        "corrupt", ["to_weight", "from_support", "arc_weight", "priority"]
    )
    def test_validate_catches_corruption(self, one_way_city, corrupt):
        index = directed_ch_indexing(one_way_city)
        # A slot <low, high> whose arc low -> high has a finite weight.
        low, high, _w = next(
            (u, v, w) for u, v, w in one_way_city.arcs()
            if index.lower_endpoint(u, v) == u
        )
        index.validate()
        if corrupt == "to_weight":
            index.set_weight(low, high, index.weight(low, high) + 1.0)
            match = f"arc {low}->{high}: stored {index.weight(low, high)}"
        elif corrupt == "from_support":
            index.set_support(high, low, index.support(high, low) + 1)
            match = f"arc {high}->{low}: stored support"
        elif corrupt == "arc_weight":
            index.set_edge_weight(low, high, 0.0)
            match = f"arc {low}->{high}: .* equation 0.0"
        else:
            index.structure.prio[0] += 1
            match = "priorities"
        with pytest.raises(IndexError_, match=match):
            index.validate()

    def test_matches_undirected_on_symmetric_input(self, medium_road):
        from repro.ch.indexing import ch_indexing
        from repro.ch.query import ch_distance

        digraph = DiRoadNetwork.from_undirected(medium_road)
        directed = directed_ch_indexing(digraph)
        undirected = ch_indexing(medium_road, directed.ordering)
        rng = random.Random(2)
        for _ in range(25):
            s, t = rng.randrange(medium_road.n), rng.randrange(medium_road.n)
            assert ch_distance(directed, s, t) == ch_distance(
                undirected, s, t
            )


class TestDirectedDCH:
    def _assert_equals_rebuild(self, index, graph):
        fresh = directed_ch_indexing(graph, index.ordering)
        for u, v in index.shortcuts():
            assert index.weight(u, v) == fresh.weight(u, v), (u, v)
            assert index.support(u, v) == fresh.support(u, v), (u, v)

    def test_increase_equals_rebuild(self, one_way_city):
        index = directed_ch_indexing(one_way_city)
        rng = random.Random(4)
        arcs = list(one_way_city.arcs())
        batch = [((u, v), w * 2.0) for u, v, w in rng.sample(arcs, 10)]
        dch_increase(index, batch)
        for (u, v), w in batch:
            one_way_city.set_weight(u, v, w)
        self._assert_equals_rebuild(index, one_way_city)

    def test_decrease_equals_rebuild(self, one_way_city):
        index = directed_ch_indexing(one_way_city)
        rng = random.Random(5)
        arcs = list(one_way_city.arcs())
        batch = [((u, v), w * 0.5) for u, v, w in rng.sample(arcs, 10)]
        dch_decrease(index, batch)
        for (u, v), w in batch:
            one_way_city.set_weight(u, v, w)
        self._assert_equals_rebuild(index, one_way_city)

    def test_single_direction_update_leaves_reverse(self, one_way_city):
        index = directed_ch_indexing(one_way_city)
        two_way = next(
            (u, v, w) for u, v, w in one_way_city.arcs()
            if one_way_city.has_arc(v, u)
        )
        u, v, w = two_way
        reverse_before = index.weight(v, u)
        dch_increase(index, [((u, v), w * 3.0)])
        one_way_city.set_weight(u, v, w * 3.0)
        # The reverse shortcut can only have changed if some directed
        # valley path through (u -> v) served v -> u, which it cannot.
        assert index.weight(v, u) == reverse_before
        index.validate()

    def test_roundtrip_restores(self, one_way_city):
        index = directed_ch_indexing(one_way_city)
        rng = random.Random(6)
        arcs = list(one_way_city.arcs())
        sample = rng.sample(arcs, 12)
        dch_increase(index, [((u, v), w * 2.0) for u, v, w in sample])
        dch_decrease(index, [((u, v), float(w)) for u, v, w in sample])
        self._assert_equals_rebuild(index, one_way_city)

    def test_queries_after_updates(self, one_way_city):
        index = directed_ch_indexing(one_way_city)
        rng = random.Random(7)
        arcs = list(one_way_city.arcs())
        for round_id in range(3):
            sample = rng.sample(arcs, 6)
            factor = [2.0, 4.0, 1.5][round_id]
            batch = [((u, v), one_way_city.weight(u, v) * factor)
                     for u, v, _ in sample]
            dch_increase(index, batch)
            for (u, v), w in batch:
                one_way_city.set_weight(u, v, w)
            index.validate()
            for _ in range(15):
                s, t = (rng.randrange(one_way_city.n),
                        rng.randrange(one_way_city.n))
                assert ch_distance(index, s, t) == directed_distance(
                    one_way_city, s, t
                )

    def test_validation_errors(self, one_way_city):
        index = directed_ch_indexing(one_way_city)
        with pytest.raises(UpdateError):
            dch_increase(index, [((0, 10**6), 1.0)])
        u, v, w = next(iter(one_way_city.arcs()))
        with pytest.raises(UpdateError):
            dch_increase(index, [((u, v), w * 0.5)])
        with pytest.raises(UpdateError):
            dch_decrease(index, [((u, v), w * 2.0)])
