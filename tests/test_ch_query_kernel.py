"""The CH query kernel: answers, paths and operation counts.

``ch_distance`` / ``ch_path``, ``upward_search`` and
``directed_ch_distance`` run the paper's upward searches (Section 2)
over ``nbr+(u)`` only.  Each is checked against Dijkstra on a grid and
on a generated road network.  Their
``query_relax`` / ``upward_relax`` totals over seeded pairs are pinned
to golden values: the counts are the paper's cost measure, so a change
to them is a change to the search, not to its speed.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from repro.baselines.dijkstra import dijkstra
from repro.ch.indexing import ch_indexing
from repro.ch.query import ch_distance, ch_path, upward_search
from repro.directed.ch import directed_ch_distance, directed_ch_indexing
from repro.directed.dijkstra import directed_dijkstra
from repro.directed.graph import DiRoadNetwork
from repro.errors import QueryError
from repro.graph.generators import grid_network, road_network
from repro.utils.counters import OpCounter

GRAPHS = {
    "grid": lambda: grid_network(9, 9, seed=5),
    "road": lambda: road_network(300, seed=11),
}
PAIRS = 80
PAIR_SEED = 2024

#: Totals over ``seeded_pairs`` (``upward_search``: over their sources),
#: recorded from the engine that scanned every neighbor with a rank test.
GOLDEN_QUERY_RELAX = {"grid": 10689, "road": 19878}
GOLDEN_UPWARD_RELAX = {"grid": 8354, "road": 13942}
GOLDEN_DIRECTED_RELAX = {"grid": 10206, "road": 18701}


def seeded_pairs(n: int, count: int = PAIRS):
    rng = random.Random(PAIR_SEED)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def one_way(graph, seed: int = 3) -> DiRoadNetwork:
    """*graph* with 30% of its streets one-way and uneven two-way costs."""
    rng = random.Random(seed)
    digraph = DiRoadNetwork(graph.n)
    for u, v, w in graph.edges():
        roll = rng.random()
        if roll < 0.15:
            digraph.add_arc(u, v, w)
        elif roll < 0.30:
            digraph.add_arc(v, u, w)
        else:
            digraph.add_arc(u, v, w)
            digraph.add_arc(v, u, w * rng.choice([1.0, 1.5, 2.0]))
    return digraph


@lru_cache(maxsize=None)
def undirected(name: str):
    graph = GRAPHS[name]()
    return graph, ch_indexing(graph)


@lru_cache(maxsize=None)
def directed(name: str):
    digraph = one_way(GRAPHS[name]())
    return digraph, directed_ch_indexing(digraph)


def path_weight(graph, path) -> float:
    return sum(graph.weight(a, b) for a, b in zip(path, path[1:]))


def assert_exact_against_dijkstra(graph, sc, pairs) -> None:
    truth = {}
    for s, t in pairs:
        if s not in truth:
            truth[s] = dijkstra(graph, s)
        d = ch_distance(sc, s, t)
        assert d == truth[s][t], (s, t)
        path = ch_path(sc, s, t)
        assert path[0] == s and path[-1] == t
        assert path_weight(graph, path) == d, (s, t)


# The case ids name the index store under test: the dict store.
cases = pytest.mark.parametrize(
    "name", list(GRAPHS), ids=[f"{g}-dict" for g in GRAPHS]
)


@cases
class TestUndirected:
    def test_distance_and_path_match_dijkstra(self, name):
        graph, sc = undirected(name)
        assert_exact_against_dijkstra(graph, sc, seeded_pairs(graph.n))

    def test_same_vertex_is_free(self, name):
        graph, sc = undirected(name)
        ops = OpCounter()
        for v in (0, graph.n // 2, graph.n - 1):
            assert ch_distance(sc, v, v, ops) == 0.0
            assert ch_path(sc, v, v, ops) == [v]
        assert ops.as_dict() == {}

    @pytest.mark.parametrize("bad", [-1, -7, "n", "n+3"])
    def test_bad_ids_raise(self, name, bad):
        graph, sc = undirected(name)
        bad = {"n": graph.n, "n+3": graph.n + 3}.get(bad, bad)
        for query in (ch_distance, ch_path):
            with pytest.raises(QueryError):
                query(sc, bad, 0)
            with pytest.raises(QueryError):
                query(sc, 0, bad)

    def test_query_relax_total_is_pinned(self, name):
        graph, sc = undirected(name)
        ops = OpCounter()
        for s, t in seeded_pairs(graph.n):
            ch_distance(sc, s, t, ops)
        assert ops.as_dict() == {"query_relax": GOLDEN_QUERY_RELAX[name]}

    def test_path_counts_what_distance_counts(self, name):
        graph, sc = undirected(name)
        for s, t in seeded_pairs(graph.n, 20):
            by_distance, by_path = OpCounter(), OpCounter()
            ch_distance(sc, s, t, by_distance)
            ch_path(sc, s, t, by_path)
            assert by_distance.as_dict() == by_path.as_dict()

    def test_upward_relax_total_is_pinned(self, name):
        graph, sc = undirected(name)
        ops = OpCounter()
        for s, _ in seeded_pairs(graph.n):
            dist, parent = upward_search(sc, s, ops)
            assert dist[s] == 0.0 and parent[s] == -1
            for v, u in parent.items():
                if u != -1:
                    assert dist[v] == dist[u] + sc.weight(u, v)
        assert ops.as_dict() == {"upward_relax": GOLDEN_UPWARD_RELAX[name]}


@cases
class TestDirected:
    def test_distance_matches_dijkstra(self, name):
        digraph, index = directed(name)
        truth = {}
        for s, t in seeded_pairs(digraph.n):
            if s not in truth:
                truth[s] = directed_dijkstra(digraph, s)
            assert directed_ch_distance(index, s, t) == truth[s][t], (s, t)

    def test_same_vertex_is_free(self, name):
        digraph, index = directed(name)
        ops = OpCounter()
        for v in (0, digraph.n - 1):
            assert directed_ch_distance(index, v, v, ops) == 0.0
        assert ops.as_dict() == {}

    @pytest.mark.parametrize("bad", [-1, "n"])
    def test_bad_ids_raise(self, name, bad):
        digraph, index = directed(name)
        bad = digraph.n if bad == "n" else bad
        with pytest.raises(QueryError):
            directed_ch_distance(index, bad, 0)
        with pytest.raises(QueryError):
            directed_ch_distance(index, 0, bad)

    def test_query_relax_total_is_pinned(self, name):
        digraph, index = directed(name)
        ops = OpCounter()
        for s, t in seeded_pairs(digraph.n):
            directed_ch_distance(index, s, t, ops)
        assert ops.as_dict() == {"query_relax": GOLDEN_DIRECTED_RELAX[name]}


@pytest.mark.slow
def test_mid_size_differential():
    """Distances and unpacked paths equal Dijkstra at mid size."""
    graph = road_network(2025)
    sc = ch_indexing(graph)
    assert_exact_against_dijkstra(graph, sc, seeded_pairs(graph.n, 200))
