"""Property-based tests for edge updates and the directed extension."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ch.edge_updates import delete_edge, insert_edge
from repro.ch.indexing import ch_indexing
from repro.ch.query import ch_distance
from repro.directed.ch import directed_ch_indexing
from repro.ch.dch import dch_decrease, dch_increase
from repro.directed.dijkstra import directed_dijkstra
from repro.directed.graph import DiRoadNetwork
from repro.h2h.edge_updates import h2h_insert_edge
from repro.h2h.indexing import fill_distance_arrays, h2h_indexing
from repro.h2h.tree import TreeDecomposition

from test_property_oracles import connected_graphs

common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs_with_insertions(draw):
    """A connected graph plus a list of new edges to insert."""
    graph = draw(connected_graphs(max_vertices=16))
    insertions = []
    used = {(u, v) for u, v, _ in graph.edges()}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        u = draw(st.integers(0, graph.n - 2))
        v = draw(st.integers(u + 1, graph.n - 1))
        if u != v and (u, v) not in used:
            used.add((u, v))
            insertions.append((u, v, float(draw(st.integers(1, 15)))))
    return graph, insertions


class TestEdgeInsertionProperties:
    @common_settings
    @given(graphs_with_insertions())
    def test_ch_insert_matches_rebuild(self, data):
        graph, insertions = data
        sc = ch_indexing(graph)
        for u, v, w in insertions:
            insert_edge(sc, u, v, w)
            graph.add_edge(u, v, w)
        fresh = ch_indexing(graph, sc.ordering)
        incremental = sc.weight_snapshot()
        for key, weight in fresh.weight_snapshot().items():
            assert incremental[key] == weight
        sc.validate()

    @common_settings
    @given(graphs_with_insertions())
    def test_h2h_insert_matches_rebuild(self, data):
        graph, insertions = data
        index = h2h_indexing(graph)
        for u, v, w in insertions:
            index = h2h_insert_edge(index, u, v, w)
            graph.add_edge(u, v, w)
        sc = ch_indexing(graph, index.sc.ordering)
        fresh = fill_distance_arrays(sc, TreeDecomposition(sc))
        assert np.array_equal(index.dis, fresh.dis)
        assert np.array_equal(index.sup, fresh.sup)

    @common_settings
    @given(connected_graphs(max_vertices=14))
    def test_delete_then_restore_is_identity_on_weights(self, graph):
        sc = ch_indexing(graph)
        before = sc.weight_snapshot()
        u, v, w = next(iter(graph.edges()))
        delete_edge(sc, u, v)
        from repro.ch.dch import dch_decrease

        dch_decrease(sc, [((u, v), w)])
        assert sc.weight_snapshot() == before
        sc.validate()


@st.composite
def digraphs(draw, max_vertices=14):
    """A weakly-connected digraph: undirected tree + random arcs."""
    base = draw(connected_graphs(max_vertices=max_vertices))
    digraph = DiRoadNetwork(base.n)
    for u, v, w in base.edges():
        keep = draw(st.sampled_from(["both", "fwd", "back"]))
        if keep in ("both", "fwd"):
            digraph.add_arc(u, v, w)
        if keep in ("both", "back"):
            digraph.add_arc(v, u, float(draw(st.integers(1, 12))))
    return digraph


class TestDirectedProperties:
    @common_settings
    @given(digraphs())
    def test_directed_ch_matches_dijkstra(self, digraph):
        index = directed_ch_indexing(digraph)
        for s in range(0, digraph.n, max(1, digraph.n // 4)):
            dist = directed_dijkstra(digraph, s)
            for t in range(digraph.n):
                assert ch_distance(index, s, t) == dist[t]

    @common_settings
    @given(digraphs(), st.integers(1, 4))
    def test_directed_dch_roundtrip(self, digraph, count):
        index = directed_ch_indexing(digraph)
        arcs = list(digraph.arcs())[:count]
        ups = [((u, v), w * 2.0) for u, v, w in arcs]
        downs = [((u, v), float(w)) for u, v, w in arcs]
        dch_increase(index, ups)
        for (u, v), w in ups:
            digraph.set_weight(u, v, w)
        index.validate()
        for s in range(0, digraph.n, max(1, digraph.n // 4)):
            dist = directed_dijkstra(digraph, s)
            for t in range(digraph.n):
                assert ch_distance(index, s, t) == dist[t]
        dch_decrease(index, downs)
        for (u, v), w in downs:
            digraph.set_weight(u, v, w)
        index.validate()
