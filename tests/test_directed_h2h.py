"""Tests for the directed H2H index and its incremental maintenance."""

from __future__ import annotations

import math
import random

import pytest

from repro.directed.graph import DiRoadNetwork
from repro.directed.dijkstra import directed_dijkstra
from repro.directed.h2h import FROM, TO, directed_h2h_indexing
from repro.h2h.inch2h import inch2h_decrease, inch2h_increase
from repro.errors import QueryError
from repro.graph.generators import road_network
from repro.h2h.query import h2h_distance
from repro.obs.trace import MemorySink, use_sink


@pytest.fixture
def one_way_city():
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


@pytest.fixture
def index(one_way_city):
    return directed_h2h_indexing(one_way_city)


class TestStatic:
    def test_all_queries_match_dijkstra(self, index, one_way_city):
        for s in range(0, one_way_city.n, 13):
            dist = directed_dijkstra(one_way_city, s)
            for t in range(one_way_city.n):
                assert h2h_distance(index, s, t) == dist[t]

    def test_asymmetry_preserved(self, index, one_way_city):
        rng = random.Random(1)
        found_asymmetric = False
        for _ in range(50):
            s, t = rng.randrange(index.n), rng.randrange(index.n)
            there = h2h_distance(index, s, t)
            back = h2h_distance(index, t, s)
            if there != back:
                found_asymmetric = True
            assert there == directed_dijkstra(one_way_city, s)[t]
        assert found_asymmetric, "one-way city should have asymmetric pairs"

    def test_validates(self, index):
        index.validate()

    def test_self_distance(self, index):
        assert h2h_distance(index, 7, 7) == 0.0

    def test_out_of_range(self, index):
        with pytest.raises(QueryError):
            h2h_distance(index, 0, 10**6)

    def test_label_semantics(self, index, one_way_city):
        """dis_to / dis_from are sd(u -> a) / sd(a -> u) exactly."""
        tree = index.tree
        for u in range(0, index.n, 21):
            dist_out = directed_dijkstra(one_way_city, u)
            dist_in = directed_dijkstra(one_way_city, u, reverse=True)
            for d, a in enumerate(tree.anc[u]):
                a = int(a)
                assert index.dis[TO][u, d] == dist_out[a]
                assert index.dis[FROM][u, d] == dist_in[a]

    def test_counts_twice_undirected(self, index):
        assert index.num_super_shortcuts() == 2 * index.tree.num_super_shortcuts()

    def test_matches_undirected_on_symmetric_input(self, medium_road):
        from repro.h2h.indexing import h2h_indexing
        from repro.h2h.query import h2h_distance

        digraph = DiRoadNetwork.from_undirected(medium_road)
        directed = directed_h2h_indexing(digraph)
        undirected = h2h_indexing(medium_road, directed.sc.ordering)
        rng = random.Random(2)
        for _ in range(30):
            s, t = rng.randrange(medium_road.n), rng.randrange(medium_road.n)
            assert h2h_distance(directed, s, t) == h2h_distance(
                undirected, s, t
            )


class TestIncremental:
    def test_increase_then_queries(self, index, one_way_city):
        rng = random.Random(3)
        arcs = list(one_way_city.arcs())
        sample = rng.sample(arcs, 8)
        inch2h_increase(index, [((u, v), w * 2.0) for u, v, w in sample])
        for u, v, w in sample:
            one_way_city.set_weight(u, v, w * 2.0)
        index.validate()
        for s in range(0, one_way_city.n, 19):
            dist = directed_dijkstra(one_way_city, s)
            for t in range(one_way_city.n):
                assert h2h_distance(index, s, t) == dist[t]

    def test_roundtrip_restores(self, index, one_way_city):
        dis_to_before = index.dis[TO].copy()
        dis_from_before = index.dis[FROM].copy()
        sup_to_before = index.sup[TO].copy()
        rng = random.Random(4)
        arcs = list(one_way_city.arcs())
        sample = rng.sample(arcs, 10)
        inch2h_increase(index, [((u, v), w * 3.0) for u, v, w in sample])
        inch2h_decrease(index, [((u, v), float(w)) for u, v, w in sample])
        import numpy as np

        assert np.array_equal(index.dis[TO], dis_to_before)
        assert np.array_equal(index.dis[FROM], dis_from_before)
        assert np.array_equal(index.sup[TO], sup_to_before)

    def test_repeated_mixed_rounds(self, index, one_way_city):
        rng = random.Random(6)
        arcs = list(one_way_city.arcs())
        for trial in range(3):
            sample = rng.sample(arcs, 6)
            factor = [2.0, 4.0, 1.5][trial]
            ups = [((u, v), one_way_city.weight(u, v) * factor)
                   for u, v, _ in sample]
            inch2h_increase(index, ups)
            for (u, v), w in ups:
                one_way_city.set_weight(u, v, w)
            index.validate()
            downs = [((u, v), one_way_city.weight(u, v) / factor)
                     for (u, v), _ in ups]
            inch2h_decrease(index, downs)
            for (u, v), w in downs:
                one_way_city.set_weight(u, v, w)
            index.validate()

    def test_one_direction_update_leaves_other_labels(self, index,
                                                      one_way_city):
        two_way = next(
            (u, v, w) for u, v, w in one_way_city.arcs()
            if one_way_city.has_arc(v, u)
        )
        u, v, w = two_way
        import numpy as np

        # Distances INTO targets using arc u->v can change; distances in
        # the pure reverse direction v->u cannot change labels that never
        # route over u->v.  Spot-check overall correctness instead.
        inch2h_increase(index, [((u, v), w * 5.0)])
        one_way_city.set_weight(u, v, w * 5.0)
        index.validate()
        del np

    def test_arc_deletion_via_infinity(self, index, one_way_city):
        u, v, w = next(iter(one_way_city.arcs()))
        inch2h_increase(index, [((u, v), math.inf)])
        one_way_city.set_weight(u, v, math.inf)
        index.validate()
        for s in range(0, one_way_city.n, 31):
            dist = directed_dijkstra(one_way_city, s)
            for t in range(one_way_city.n):
                assert h2h_distance(index, s, t) == dist[t]
        # Restore.
        inch2h_decrease(index, [((u, v), float(w))])
        one_way_city.set_weight(u, v, float(w))
        index.validate()


class TestSpans:
    def test_directed_call_opens_directed_spans(self, index, one_way_city):
        """The one IncH2H± entry names its span by D; on a directed index
        the phase spans nest under ``directed.inch2h.*`` and the record
        carries op counts, not Section 5's currencies."""
        u, v, w = next(iter(one_way_city.arcs()))
        sink = MemorySink()
        with use_sink(sink):
            inch2h_increase(index, [((u, v), w * 2.0)])
            inch2h_decrease(index, [((u, v), float(w))])
        by_id = {r["span_id"]: r for r in sink.records}
        spans = [r["span"] for r in sink.records]
        for kind in ("increase", "decrease"):
            assert f"directed.inch2h.{kind}" in spans
            assert f"inch2h.{kind}" not in spans
            for phase in ("seed", "propagate"):
                (record,) = [
                    r for r in sink.records if r["span"] == f"inch2h.{kind}.{phase}"
                ]
                parent = by_id[record["parent_id"]]["span"]
                assert parent == f"directed.inch2h.{kind}"
        for record in sink.records:
            if record["span"].startswith("directed.inch2h."):
                assert record["ops_total"] > 0 and "aff_norm" not in record
