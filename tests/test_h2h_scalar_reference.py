"""The scalar H2H query and the LCA against references written here.

``distance_many`` is checked against ``h2h_distance`` and
``directed_h2h_distance`` (tests/test_h2h_batch_query.py), so the scalar
queries need a check of their own that does not run through them: a
parent-walk LCA and a Python ``min`` over ``pos(LCA)`` of the label
rows.  Answers must be ``==`` (no tolerance) and the ``pos_scan`` total
must equal the sum of the scanned ``|pos|``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dynamic import DynamicH2H
from repro.directed.dynamic import DynamicDiH2H
from repro.directed.graph import DiRoadNetwork
from repro.directed.h2h import directed_h2h_distance
from repro.graph.generators import grid_network, road_network
from repro.h2h.query import h2h_distance
from repro.utils.counters import OpCounter
from repro.utils.lca import LCAOracle

GRAPHS = {
    "grid": lambda: grid_network(8, 9, seed=4),
    "road400": lambda: road_network(400, seed=13),
}


def one_way(base) -> DiRoadNetwork:
    """*base* with some streets one-way and some directions slower."""
    rng = random.Random(11)
    digraph = DiRoadNetwork(base.n)
    for u, v, w in base.edges():
        roll = rng.random()
        if roll < 0.1:
            digraph.add_arc(u, v, w)
        elif roll < 0.2:
            digraph.add_arc(v, u, w)
        else:
            digraph.add_arc(u, v, w)
            digraph.add_arc(v, u, w * rng.choice([1.0, 1.5, 3.0]))
    return digraph


def walk_lca(parent, u: int, v: int):
    """LCA by walking parent pointers; None if *u* and *v* share no root."""
    ancestors = set()
    while u != -1:
        ancestors.add(u)
        u = parent[u]
    while v != -1 and v not in ancestors:
        v = parent[v]
    return None if v == -1 else v


def scan_reference(tree, row_s, row_t, s: int, t: int):
    """``(distance, |pos|)`` by a Python ``min`` over ``pos(LCA)``."""
    if s == t:
        return 0.0, 0
    positions = [int(i) for i in tree.pos[walk_lca(tree.parent, s, t)]]
    return min(float(row_s[i]) + float(row_t[i]) for i in positions), len(positions)


def query_pairs(tree, count: int, seed: int):
    """Seeded pairs, ``s == t`` pairs and ancestor/descendant pairs."""
    n = tree.n
    rng = random.Random(seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    pairs += [(v, v) for v in rng.sample(range(n), 5)]
    for v in rng.sample(range(n), 20):
        for a in tree.anc[v]:
            pairs += [(int(a), v), (v, int(a))]
    pairs += [(tree.root, v) for v in range(0, n, 17)]
    return pairs


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_undirected_scalar_query_equals_reference(name):
    index = DynamicH2H(GRAPHS[name]()).index
    tree = index.tree
    pairs = query_pairs(tree, 400, seed=3)
    ops = OpCounter()
    got = [h2h_distance(index, s, t, ops) for s, t in pairs]
    reference = [scan_reference(tree, index.dis[s], index.dis[t], s, t) for s, t in pairs]
    assert got == [d for d, _ in reference]
    assert ops["pos_scan"] == sum(k for _, k in reference) > 0


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_directed_scalar_query_equals_reference(name):
    index = DynamicDiH2H(one_way(GRAPHS[name]())).index
    tree = index.tree
    dis_to, dis_from = index.dis
    pairs = query_pairs(tree, 400, seed=5)
    pairs += [(t, s) for s, t in pairs[:100]]
    ops = OpCounter()
    got = [directed_h2h_distance(index, s, t, ops) for s, t in pairs]
    reference = [scan_reference(tree, dis_to[s], dis_from[t], s, t) for s, t in pairs]
    assert got == [d for d, _ in reference]
    assert ops["pos_scan"] == sum(k for _, k in reference) > 0


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_tree_lca_equals_parent_walk(name):
    tree = DynamicH2H(GRAPHS[name]()).index.tree
    for s, t in query_pairs(tree, 2000, seed=9):
        got = tree.lca(s, t)
        assert type(got) is int
        assert got == walk_lca(tree.parent, s, t)


def test_forest_lca_equals_parent_walk_and_rejects_cross_tree_pairs():
    rng = random.Random(2)
    parent = [-1]
    for v in range(1, 300):
        parent.append(-1 if rng.random() < 0.03 else rng.randrange(v))
    oracle = LCAOracle(parent)
    crossing = 0
    for u in range(0, 300, 7):
        for v in range(300):
            expected = walk_lca(parent, u, v)
            if expected is None:
                crossing += 1
                with pytest.raises(ValueError, match="not in the same tree"):
                    oracle.lca(u, v)
            else:
                assert oracle.lca(u, v) == expected
    assert crossing > 0
