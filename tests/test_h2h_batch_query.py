"""The batch H2H query plane (``distance_many``) against its references.

``H2HIndex.distance_many`` / ``DirectedH2HIndex.distance_many`` answer a
whole batch with one vectorised LCA and one padded ``pos`` gather
(:func:`repro.perf.kernels.pos_scan_many`).  They must be ``==`` — no
tolerance — to the scalar queries (``h2h_distance`` /
``directed_h2h_distance``) and to Dijkstra, and count the same
``pos_scan`` work.  ``DistanceServer.query_many``
routes H2H batches through them.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra
from repro.core.dynamic import DynamicH2H
from repro.core.oracle import DijkstraOracle
from repro.directed.dijkstra import directed_dijkstra
from repro.directed.dynamic import DynamicDiH2H
from repro.directed.graph import DiRoadNetwork
from repro.directed.h2h import directed_h2h_distance
from repro.errors import QueryError
from repro.graph.generators import grid_network, road_network
from repro.h2h.query import h2h_distance
from repro.obs import names
from repro.reliability.resilient import ResilientOracle
from repro.serve.server import DistanceServer
from repro.utils.counters import OpCounter
from repro.utils.lca import LCAOracle
from repro.workloads.updates import increase_batch, sample_edges

GRAPHS = {
    "grid": lambda: grid_network(6, 7, seed=3),
    "road": lambda: road_network(160, seed=21),
}


def one_way_city() -> DiRoadNetwork:
    base = road_network(90, seed=19)
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


def batch(n: int, count: int, seed: int):
    """Random pairs plus ``s == t`` pairs and repeated pairs (callers
    add pairs with the root, whose LCA is the root)."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    pairs += [(3, 3), (0, 0), (n - 1, n - 1)]
    pairs += pairs[:10]
    return pairs


def run_many(query, pairs, counter=None):
    sources = [s for s, _ in pairs]
    targets = [t for _, t in pairs]
    return query(sources, targets, counter).tolist()


@pytest.fixture(params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


# The case ids keep the store name of an older layout ("dict"); the index
# has one store, the flat slot store of repro.ch.shortcut_graph.
undirected_oracle = pytest.mark.parametrize("oracle_cls", [DynamicH2H], ids=["dict"])
directed_oracle = pytest.mark.parametrize("oracle_cls", [DynamicDiH2H], ids=["dict"])


@undirected_oracle
def test_equals_scalar_and_dijkstra(graph, oracle_cls):
    index = oracle_cls(graph).index
    tree = index.tree
    pairs = batch(graph.n, 300, seed=7) + [(tree.root, v) for v in range(0, graph.n, 9)]
    scalar_ops, batch_ops = OpCounter(), OpCounter()
    scalar = [h2h_distance(index, s, t, scalar_ops) for s, t in pairs]
    got = run_many(index.distance_many, pairs, batch_ops)
    assert got == scalar
    assert batch_ops["pos_scan"] == scalar_ops["pos_scan"] > 0
    truth = {s: dijkstra(graph, s) for s in {s for s, _ in pairs}}
    assert got == [truth[s][t] for s, t in pairs]


@undirected_oracle
def test_pairs_under_the_root(graph, oracle_cls):
    """Pairs whose LCA is the root scan the root's ``pos`` row."""
    index = oracle_cls(graph).index
    tree = index.tree
    rng = random.Random(4)
    pairs = [(rng.randrange(graph.n), rng.randrange(graph.n)) for _ in range(400)]
    pairs = [(s, t) for s, t in pairs if s != t and tree.lca(s, t) == tree.root]
    assert pairs
    assert run_many(index.distance_many, pairs) == [
        h2h_distance(index, s, t) for s, t in pairs
    ]


@undirected_oracle
def test_after_maintenance(oracle_cls):
    oracle = oracle_cls(road_network(120, seed=8))
    oracle.apply(increase_batch(sample_edges(oracle.graph, 6, seed=2), factor=3.0))
    pairs = batch(oracle.graph.n, 200, seed=1)
    truth = {s: dijkstra(oracle.graph, s) for s in {s for s, _ in pairs}}
    got = oracle.distance_many([s for s, _ in pairs], [t for _, t in pairs]).tolist()
    assert got == [truth[s][t] for s, t in pairs]
    assert got == [oracle.distance(s, t) for s, t in pairs]


@directed_oracle
def test_directed_equals_scalar_and_dijkstra(oracle_cls):
    digraph = one_way_city()
    index = oracle_cls(digraph).index
    pairs = batch(digraph.n, 300, seed=5)
    pairs += [(t, s) for s, t in pairs[:50]]
    pairs += [(index.tree.root, v) for v in range(0, digraph.n, 7)]
    scalar_ops, batch_ops = OpCounter(), OpCounter()
    scalar = [directed_h2h_distance(index, s, t, scalar_ops) for s, t in pairs]
    got = run_many(index.distance_many, pairs, batch_ops)
    assert got == scalar
    assert batch_ops["pos_scan"] == scalar_ops["pos_scan"] > 0
    truth = {s: directed_dijkstra(digraph, s) for s in {s for s, _ in pairs}}
    assert got == [truth[s][t] for s, t in pairs]


@pytest.mark.parametrize(
    "oracle_cls, make",
    [(DynamicH2H, GRAPHS["grid"]), (DynamicDiH2H, one_way_city)],
    ids=["undirected", "directed"],
)
def test_empty_batch(oracle_cls, make):
    oracle = oracle_cls(make())
    out = oracle.distance_many([], [])
    assert out.shape == (0,) and out.dtype == np.float64
    assert oracle.counter["pos_scan"] == 0


def test_same_vertex_scans_nothing():
    oracle = DynamicH2H(GRAPHS["grid"]())
    assert oracle.distance_many([4, 9, 9], [4, 9, 9]).tolist() == [0.0, 0.0, 0.0]
    assert oracle.counter["pos_scan"] == 0


@pytest.mark.parametrize(
    "oracle_cls, make",
    [(DynamicH2H, GRAPHS["grid"]), (DynamicDiH2H, one_way_city)],
    ids=["undirected", "directed"],
)
@pytest.mark.parametrize(
    "sources, targets",
    [([0, -1], [1, 2]), ([0, 1], [2, -3]), ([10**6], [0]), ([0], ["n"])],
    ids=["negative-source", "negative-target", "too-large", "exactly-n"],
)
def test_out_of_range_ids_raise(oracle_cls, make, sources, targets):
    oracle = oracle_cls(make())
    n = oracle.graph.n
    targets = [n if t == "n" else t for t in targets]
    with pytest.raises(QueryError):
        oracle.distance_many(sources, targets)
    # The scalar path rejects the same pairs.
    bad = next((s, t) for s, t in zip(sources, targets) if not (0 <= s < n and 0 <= t < n))
    with pytest.raises(QueryError):
        oracle.distance(*bad)


def test_lca_many_matches_lca(graph):
    tree = DynamicH2H(graph).tree
    us = np.repeat(np.arange(graph.n), graph.n)
    vs = np.tile(np.arange(graph.n), graph.n)
    expected = [tree.lca(int(u), int(v)) for u, v in zip(us, vs)]
    assert tree.lca_many(us, vs).tolist() == expected


def test_lca_many_matches_lca_on_a_forest():
    oracle = LCAOracle([-1, 0, 0, -1, 3, 1, 1])
    trees = {0: 0, 1: 0, 2: 0, 5: 0, 6: 0, 3: 3, 4: 3}
    same = [(u, v) for u in range(7) for v in range(7) if trees[u] == trees[v]]
    us = np.array([u for u, _ in same])
    vs = np.array([v for _, v in same])
    assert oracle.lca_many(us, vs).tolist() == [oracle.lca(u, v) for u, v in same]
    # A pair across the two trees has no LCA, in either query.
    with pytest.raises(ValueError):
        oracle.lca(1, 4)
    with pytest.raises(ValueError):
        oracle.lca_many(np.append(us, 1), np.append(vs, 4))


def test_pos_pages_hold_every_row(graph):
    tree = DynamicH2H(graph).tree
    assert tree.pos_pad.dtype == np.int32
    assert tree.pos_pad.shape == (tree.n, max(len(p) for p in tree.pos))
    for u, row in enumerate(tree.pos):
        length = tree.pos_len[u]
        assert length == len(row)
        assert tree.pos_pad[u, :length].tolist() == row.tolist()
        assert set(tree.pos_pad[u, length:].tolist()) <= {int(row[0])}


def test_clones_share_the_pages():
    oracle = DynamicH2H(GRAPHS["grid"]())
    clone = oracle.clone()
    assert clone.tree.pos_pad is oracle.tree.pos_pad


# ----------------------------------------------------------------------
# DistanceServer.query_many routing
# ----------------------------------------------------------------------
def test_server_batches_h2h_through_distance_many():
    with DistanceServer(DynamicH2H(road_network(100, seed=6)), workers=2) as server:
        pairs = batch(100, 80, seed=2)
        got = server.query_many(pairs)
        assert got == [server.snapshot().oracle.distance(s, t) for s, t in pairs]
        # A label oracle keeps no cache; the batch counts as misses.
        assert server.cache is None
        queries = server.metrics.get(names.SERVE_QUERIES)
        assert queries.value(result="miss") == len(pairs)
        assert server.query_many([]) == []
        with pytest.raises(QueryError):
            server.query_many([(0, 1), (-1, 2)])
        with pytest.raises(ValueError):
            server.query_many([(0, 1, 2), (3, 4, 5)])


@pytest.mark.parametrize(
    "oracle",
    [DijkstraOracle, lambda g: ResilientOracle(DynamicH2H(g))],
    ids=["dijkstra", "resilient"],
)
def test_server_keeps_the_per_pair_path_without_distance_many(oracle):
    with DistanceServer(oracle(road_network(60, seed=6)), workers=2) as server:
        pairs = batch(60, 40, seed=3)
        got = server.query_many(pairs)
        assert got == [server.distance(s, t) for s, t in pairs]
        assert server.cache.stats.hits >= len(pairs)
