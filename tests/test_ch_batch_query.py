"""The batch CH query plane (``ch_distance_many``) against the per-pair search.

:func:`repro.ch.query.ch_distance_many` answers a batch from upward
labels filled over the batch's elimination-tree ancestors, undirected
and over the directed store's ``(2, slots)`` rows.  Its answers must be
``==`` — no tolerance — to ``ch_distance`` / ``directed_ch_distance``
pair by pair: on the paper example, after DCH± on clones that share one
structure, after an edge insertion that moves a parent, on a forest, and
for ``s == t``, empty batches and bad ids.  It must leave the per-query
measures ``query_relax`` and ``upward_relax`` alone.
``DistanceServer.query_many`` sends CH batches through it, with the
cache answering the pairs it holds.  The road-network bodies run at a
tier-1 size and, under ``slow``, at n = 2,025.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.baselines.dijkstra import distance as dijkstra_distance
from repro.ch.edge_updates import insert_edge
from repro.ch.query import ch_distance, ch_distance_many
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.core.oracle import DijkstraOracle
from repro.directed.ch import directed_ch_distance
from repro.directed.dynamic import DynamicDiCH, DynamicDiH2H
from repro.directed.graph import DiRoadNetwork
from repro.errors import QueryError
from repro.graph.generators import road_network
from repro.graph.graph import RoadNetwork
from repro.obs import names
from repro.order.min_degree import minimum_degree_ordering
from repro.reliability.resilient import ResilientOracle
from repro.serve.server import DistanceServer
from repro.utils.counters import OpCounter
from repro.workloads.updates import mixed_batch

from conftest import one_way_network, random_pairs


def pairs_of(n: int, count: int, seed: int):
    """Random pairs plus ``s == t`` pairs and a repeated pair."""
    pairs = random_pairs(n, count, seed=seed)
    return pairs + [(v, v) for v in range(0, n, max(1, n // 5))] + pairs[:3]


def check(index, pairs, scalar):
    """The batch equals *scalar* pair by pair and counts no per-query
    work."""
    counter = OpCounter()
    got = ch_distance_many(
        index, [s for s, _ in pairs], [t for _, t in pairs], counter
    )
    assert got.dtype == np.float64
    assert got.tolist() == [scalar(index, s, t) for s, t in pairs]
    assert counter["query_relax"] == 0 and counter["upward_relax"] == 0
    return counter


def test_paper_example(paper_sc):
    pairs = [(s, t) for s in range(paper_sc.n) for t in range(paper_sc.n)]
    counter = check(paper_sc, pairs, ch_distance)
    assert counter["label_relax"] > 0


@pytest.mark.parametrize("n", [400, pytest.param(2025, marks=pytest.mark.slow)])
def test_road_network_after_dch_on_clones_sharing_a_structure(n):
    graph = road_network(n, seed=7)
    oracle = DynamicCH(graph)
    pairs = pairs_of(n, 300, seed=n)
    check(oracle.index, pairs, ch_distance)
    st = oracle.index.structure
    tree = st.batch_tree
    assert tree is not None
    current = oracle
    for k in range(6):
        nxt = current.clone()
        nxt.apply(mixed_batch(nxt.graph, 12, seed=k))
        assert nxt.index.structure is st and st.batch_tree is tree
        check(nxt.index, pairs, ch_distance)
        check(current.index, pairs, ch_distance)  # the parent is untouched
        current = nxt
    sample = pairs[:25]
    assert current.distance_many(*zip(*sample)).tolist() == [
        dijkstra_distance(current.graph, s, t) for s, t in sample
    ]


def test_after_an_edge_insertion_that_changes_a_parent():
    graph = road_network(200, seed=42)
    oracle = DynamicCH(graph.copy())
    pairs = pairs_of(graph.n, 200, seed=3)
    check(oracle.index, pairs, ch_distance)
    st = oracle.index.structure
    rank = oracle.index.ordering.rank
    u = next(u for u in range(graph.n) if st.parent[u] >= 0
             and rank[st.parent[u]] - rank[u] > 2)
    x = next(x for x in range(graph.n) if rank[u] < rank[x] < rank[st.parent[u]])
    dup = oracle.clone()
    insert_edge(dup.index, u, x, 1.0)
    dup.graph.add_edge(u, x, 1.0)
    assert dup.index.structure.parent[u] == x
    check(dup.index, pairs, ch_distance)
    assert dup.index.structure.batch_tree is not st.batch_tree
    check(oracle.index, pairs, ch_distance)
    assert dup.distance_many([u], [x]).tolist() == [1.0]


def forest() -> RoadNetwork:
    """Two road networks side by side plus an isolated vertex."""
    a, b = road_network(60, seed=1), road_network(45, seed=2)
    edges = list(a.edges()) + [(u + a.n, v + a.n, w) for u, v, w in b.edges()]
    return RoadNetwork.from_edges(a.n + b.n + 1, edges)


def test_disconnected_forest():
    graph = forest()
    ordering = minimum_degree_ordering(graph, require_connected=False)
    oracle = DynamicCH(graph, ordering)
    assert sum(p < 0 for p in oracle.index.structure.parent) == 3
    pairs = pairs_of(graph.n, 300, seed=4) + [(0, graph.n - 1), (70, 3)]
    check(oracle.index, pairs, ch_distance)
    assert math.isinf(oracle.distance_many([0], [graph.n - 1])[0])

    digraph = DiRoadNetwork(graph.n)
    rng = random.Random(6)
    for u, v, w in graph.edges():
        if rng.random() < 0.3:
            digraph.add_arc(u, v, w)
        else:
            digraph.add_arc(u, v, w)
            digraph.add_arc(v, u, w * 1.5)
    directed = DynamicDiCH(digraph, ordering)
    check(directed.index, pairs, directed_ch_distance)


@pytest.mark.parametrize("n", [150, pytest.param(2025, marks=pytest.mark.slow)])
def test_directed_after_dch_on_clones(n):
    digraph = one_way_network(n)
    oracle = DynamicDiCH(digraph)
    pairs = pairs_of(n, 300, seed=n)
    check(oracle.index, pairs, directed_ch_distance)
    arcs = list(digraph.arcs())
    rng = random.Random(n)
    current = oracle
    for _ in range(5):
        nxt = current.clone()
        picked = rng.sample(arcs, 10)
        nxt.apply([((u, v), w * rng.choice([2.0, 0.5])) for u, v, w in picked])
        assert nxt.index.structure is oracle.index.structure
        check(nxt.index, pairs, directed_ch_distance)
        current = nxt
    # One direction's labels come from TO, the other's from FROM.
    assert current.distance_many(*zip(*pairs)).tolist() == [
        current.distance(s, t) for s, t in pairs
    ]


def test_blocks_cut_rows_and_pairs_like_one_pass(monkeypatch):
    """Steps of a few cells give the answers of one big step."""
    from repro.ch import query

    oracle = DynamicCH(road_network(300, seed=9))
    pairs = pairs_of(300, 200, seed=9)
    whole = oracle.distance_many(*zip(*pairs)).tolist()
    monkeypatch.setattr(query, "BLOCK", 7)
    assert oracle.distance_many(*zip(*pairs)).tolist() == whole
    monkeypatch.setattr(query, "BLOCK", 1)
    assert oracle.distance_many(*zip(*pairs)).tolist() == whole


def test_same_vertex_empty_batch_and_bad_ids():
    oracle = DynamicCH(road_network(80, seed=5))
    n = oracle.graph.n
    index = oracle.index
    for bad in ([-1], [n]):
        with pytest.raises(QueryError):
            oracle.distance_many(bad, [0])
        with pytest.raises(QueryError):
            oracle.distance_many([0], bad)
    assert index.structure.batch_tree is None  # rejected before any work
    assert oracle.distance_many([3, 9, 9], [3, 9, 9]).tolist() == [0.0, 0.0, 0.0]
    out = oracle.distance_many([], [])
    assert out.shape == (0,) and out.dtype == np.float64
    before = oracle.counter["label_relax"]
    oracle.distance_many([1, 2], [2, 1])
    assert oracle.counter["label_relax"] > before


# ----------------------------------------------------------------------
# DistanceServer: the cache decision and the one vectorised batch path
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make, cached",
    [
        (DynamicCH, True),
        (DijkstraOracle, True),
        (lambda g: ResilientOracle(DynamicH2H(g)), True),
        (DynamicH2H, False),
    ],
    ids=["ch", "dijkstra", "resilient", "h2h"],
)
def test_cache_follows_the_per_call_read(make, cached):
    with DistanceServer(make(road_network(60, seed=6)), workers=1) as server:
        assert (server.cache is not None) == cached


@pytest.mark.parametrize("make, cached", [(DynamicDiCH, True), (DynamicDiH2H, False)],
                         ids=["dich", "dih2h"])
def test_directed_cache_follows_the_per_call_read(make, cached):
    with DistanceServer(make(one_way_network(60)), workers=1) as server:
        assert (server.cache is not None) == cached
        if cached:
            assert not server.cache.symmetric


def distinct_pairs(n: int, count: int, seed: int):
    rng = random.Random(seed)
    seen, out = set(), []
    while len(out) < count:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t and (min(s, t), max(s, t)) not in seen:
            seen.add((min(s, t), max(s, t)))
            out.append((s, t))
    return out


@pytest.mark.parametrize("directed", [False, True], ids=["ch", "dich"])
def test_query_many_hits_the_cache_and_stores_its_misses(directed):
    make = DynamicDiCH if directed else DynamicCH
    graph = one_way_network(120) if directed else road_network(120, seed=8)
    with DistanceServer(make(graph), workers=2) as server:
        pairs = distinct_pairs(graph.n, 60, seed=2)
        held = pairs[:20]
        for s, t in held:
            server.distance(s, t)
        stats = server.cache.stats
        hits, misses = stats.hits, stats.misses
        queries = server.metrics.get(names.SERVE_QUERIES)
        counted = queries.value(result="hit"), queries.value(result="miss")
        got = server.query_many(pairs)
        oracle = server.snapshot().oracle
        assert got == [oracle.distance(s, t) for s, t in pairs]
        assert (stats.hits - hits, stats.misses - misses) == (20, 40)
        assert (
            queries.value(result="hit") - counted[0],
            queries.value(result="miss") - counted[1],
        ) == (20, 40)
        epoch = server.epoch
        assert [server.cache.peek(epoch, s, t) for s, t in pairs] == got
        # A second batch is answered from the cache alone.
        assert server.query_many(pairs) == got
        assert stats.hits - hits == 80
        with pytest.raises(QueryError):
            server.query_many([(0, 1), (-1, 2)])
        assert server.query_many([]) == []
