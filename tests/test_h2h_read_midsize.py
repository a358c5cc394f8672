"""Mid-size H2H read differential: per-call and batched reads at n = 2,025.

On a ``road_network(2025)``, undirected (``DynamicH2H``) and directed
(``DynamicDiH2H`` over ``DiRoadNetwork.from_undirected(asymmetry=1.5)``),
both read planes must equal Dijkstra exactly: the per-call
``distance`` of the served snapshot and ``DistanceServer.query_many``,
which answers an H2H batch with one vectorised ``distance_many``.  The
check runs on the built index and again after each seeded increase,
restore, decrease and mixed batch published through the server
(``cow_apply``, clone-then-swap).  Pairs are grouped by source so one
Dijkstra run serves every pair from that source.

Every weight stays a multiple of 0.25 (integer road weights, a 1.5
reverse factor, batches that double or halve), so every path sum is
exact in floating point and ``==`` is the right comparison whatever
order H2H and Dijkstra add a path's legs in.  A non-dyadic factor such
as 1.6 makes the two answers differ in the last bit.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.dijkstra import dijkstra
from repro.core.dynamic import DynamicH2H
from repro.directed.dijkstra import directed_dijkstra
from repro.directed.dynamic import DynamicDiH2H
from repro.directed.graph import DiRoadNetwork
from repro.graph.generators import road_network
from repro.serve.server import DistanceServer

N = 2025
EDGES_PER_BATCH = 60
SOURCES, TARGETS = 8, 120


def undirected():
    return DynamicH2H(road_network(N)), dijkstra


def directed():
    digraph = DiRoadNetwork.from_undirected(road_network(N), asymmetry=1.5)
    return DynamicDiH2H(digraph), directed_dijkstra


def links(graph):
    """Every edge (arc, on a directed graph) as ``(u, v, weight)``."""
    return sorted(graph.arcs() if hasattr(graph, "arcs") else graph.edges())


def batches(graph):
    """Increase then restore one sample, decrease then restore another,
    then a half-up / half-down mix of a third."""
    rng = random.Random(2025)
    pool = links(graph)
    first, second, third = (rng.sample(pool, EDGES_PER_BATCH) for _ in range(3))
    return [
        [((u, v), w * 2.0) for u, v, w in first],
        [((u, v), w) for u, v, w in first],
        [((u, v), w * 0.5) for u, v, w in second],
        [((u, v), w) for u, v, w in second],
        [((u, v), w * (2.0 if i % 2 else 0.5))
         for i, (u, v, w) in enumerate(third)],
    ]


def assert_reads_match_dijkstra(server, shortest, rng):
    oracle = server.snapshot().oracle
    graph = oracle.graph
    pairs, truth = [], []
    for s in rng.sample(range(graph.n), SOURCES):
        dist = shortest(graph, s)
        targets = rng.sample(range(graph.n), TARGETS) + [s]
        pairs += [(s, t) for t in targets]
        truth += [dist[t] for t in targets]
    assert [oracle.distance(s, t) for s, t in pairs] == truth
    assert server.query_many(pairs) == truth


@pytest.mark.slow
@pytest.mark.parametrize("build", [undirected, directed])
def test_mid_size_read_differential(build):
    oracle, shortest = build()
    rng = random.Random(7)
    with DistanceServer(oracle, workers=1) as server:
        assert_reads_match_dijkstra(server, shortest, rng)
        for batch in batches(oracle.graph):
            server.apply(batch)
            assert_reads_match_dijkstra(server, shortest, rng)
        assert server.epoch == 5
