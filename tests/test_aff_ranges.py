"""Differential: subtree-range CH ``V_aff`` against the reverse BFS.

:func:`repro.serve.aff.ch_affected_vertices` reads ``V_aff`` off the
elimination tree as pre-order ranges; ``tests/reference_aff.py`` walks
the downward closure with a reverse BFS along ``nbr-``.  Two servers
ride one stream on copies of one oracle, the second publishing through
the reference.  On every publish both sets must be equal on the new
index, and the two :class:`ServeReport` s must agree on ``affected``,
``carried`` and ``evicted`` — the cache keeps exactly the same pairs.

The streams cover the paper example, DCH± on a road network with an
edge deleted (weight ``inf``) and re-inserted, updates after Section 7's
edge insertion changed the tree of a clone, and a one-way city on the
directed CH.  The road-network and directed bodies run at a tier-1 size
and, under ``slow``, at n = 2,025.
"""

from __future__ import annotations

import math
import random
from unittest import mock

import pytest

from repro.ch.edge_updates import insert_edge
from repro.core.dynamic import DynamicCH
from repro.directed.dynamic import DynamicDiCH
from repro.graph.generators import road_network
from repro.serve import DistanceServer
from repro.serve import aff as aff_module
from repro.serve.aff import ch_affected_vertices
from repro.workloads.updates import mixed_batch

from conftest import one_way_network, random_pairs
from reference_aff import reference_ch_affected_vertices


def changed_list(report):
    """The DCH change list of an oracle report, either direction kind."""
    changed = getattr(report, "changed_shortcuts", None)
    return report.changed_shortcut_arcs if changed is None else changed


def run_stream(oracle, batches, pool):
    """Serve *oracle* twice, publishing each batch through the subtree
    ranges and through the BFS; read every pair of *pool* before each
    publish so the caches hold the previous epoch's answers."""
    with DistanceServer(oracle.clone(), workers=1) as ranges, DistanceServer(
        oracle.clone(), workers=1
    ) as bfs:
        published = partial = 0
        for batch in batches:
            for s, t in pool:
                assert ranges.distance(s, t) == bfs.distance(s, t)
            new = ranges.apply(batch)
            with mock.patch.object(
                aff_module, "ch_affected_vertices", reference_ch_affected_vertices
            ):
                old = bfs.apply(batch)
            assert (new.affected, new.carried, new.evicted) == (
                old.affected,
                old.carried,
                old.evicted,
            )
            index = ranges.snapshot().oracle.index
            changed = changed_list(new.report)
            aff = ch_affected_vertices(index, changed)
            assert aff == reference_ch_affected_vertices(index, changed)
            assert len(aff) == new.affected
            published += bool(changed)
            partial += 0 < len(aff) < index.n and new.carried > 0
        # The stream moved the index, and some publishes kept part of
        # the cache, so the two sets were compared where they can differ.
        assert published >= len(batches) // 2
        assert partial > 0


def road_batches(graph, epochs, size, seed):
    """Mixed batches; every third epoch deletes one edge (weight ``inf``)
    and the next re-inserts it at its old weight."""
    rng = random.Random(seed)
    current = graph.copy()
    batches = []
    cut = None
    for epoch in range(epochs):
        batch = mixed_batch(current, size, rng=rng)
        if cut is not None:
            u, v, w = cut
            batch = [(e, x) for e, x in batch if set(e) != {u, v}]
            batch.append(((u, v), w))
            cut = None
        elif epoch % 3 == 0:
            keys = {frozenset(e) for e, _x in batch}
            u, v, w = rng.choice(
                [e for e in current.edges() if frozenset(e[:2]) not in keys]
            )
            batch.append(((u, v), math.inf))
            cut = (u, v, w)
        current.apply_batch(batch)
        batches.append(batch)
    return batches


def arc_batches(digraph, epochs, size, seed):
    """Arc updates scaled by 2 or 0.5; every third epoch deletes one arc
    (weight ``inf``) and the next restores it."""
    rng = random.Random(seed)
    current = digraph.copy()
    batches = []
    cut = None
    for epoch in range(epochs):
        arcs = rng.sample(list(current.arcs()), size)
        batch = [((u, v), w * rng.choice([2.0, 0.5])) for u, v, w in arcs]
        if cut is not None:
            u, v, w = cut
            batch = [(a, x) for a, x in batch if a != (u, v)]
            batch.append(((u, v), w))
            cut = None
        elif epoch % 3 == 0:
            taken = {a for a, _x in batch}
            u, v, w = rng.choice([a for a in current.arcs() if a[:2] not in taken])
            batch.append(((u, v), math.inf))
            cut = (u, v, w)
        for (u, v), w in batch:
            current.set_weight(u, v, w)
        batches.append(batch)
    return batches


def test_paper_example(paper_graph, paper_ordering):
    oracle = DynamicCH(paper_graph.copy(), paper_ordering)
    edges = list(paper_graph.edges())
    batches = []
    for u, v, w in edges:
        batches += [[((u, v), w * 2)], [((u, v), w)], [((u, v), w / 2)]]
        batches += [[((u, v), math.inf)], [((u, v), w)]]
    batches.append([((u, v), w * 3) for u, v, w in edges])
    run_stream(oracle, batches, random_pairs(paper_graph.n, 30, seed=1))


@pytest.mark.parametrize(
    "n, epochs", [(400, 20), pytest.param(2025, 40, marks=pytest.mark.slow)]
)
def test_road_network_with_deletion_and_reinsertion(n, epochs):
    graph = road_network(n, seed=5)
    batches = road_batches(graph, epochs, 2, seed=n)
    run_stream(DynamicCH(graph), batches, random_pairs(n, 120, seed=n))


def test_updates_after_edge_insertion_changed_the_tree():
    graph = road_network(200, seed=42)
    oracle = DynamicCH(graph.copy())
    st = oracle.index.structure
    rank = oracle.index.ordering.rank
    # A vertex u whose parent p sits well above it: an edge to any x
    # ranked between them makes x the new parent of u.
    u = next(u for u in range(graph.n) if st.parent[u] >= 0
             and rank[st.parent[u]] - rank[u] > 2)
    x = next(x for x in range(graph.n) if rank[u] < rank[x] < rank[st.parent[u]])
    dup = oracle.clone()
    insert_edge(dup.index, u, x, 1.0)
    dup.graph.add_edge(u, x, 1.0)
    assert dup.index.structure.parent[u] == x
    assert oracle.index.structure.parent[u] != x  # the original kept its tree
    dup.index.validate()
    oracle.index.validate()
    batches = road_batches(dup.graph, 20, 2, seed=4)
    batches.insert(0, [((u, x), 5.0)])
    run_stream(dup, batches, random_pairs(graph.n, 120, seed=3))


@pytest.mark.parametrize(
    "n, epochs", [(120, 20), pytest.param(2025, 40, marks=pytest.mark.slow)]
)
def test_directed_one_way_city(n, epochs):
    digraph = one_way_network(n)
    batches = arc_batches(digraph, epochs, 2, seed=n)
    run_stream(DynamicDiCH(digraph), batches, random_pairs(n, 120, seed=n))


def reference_both_endpoints(sc, changed):
    """The former seed: the subtrees of both endpoints."""
    st = sc.structure
    return {
        v
        for (a, b), _old, _new in changed
        for x in (a, b)
        for v in st.order[st.pre[x] : st.pre[x] + st.size[x]]
    }


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_lower_endpoint_subtrees_are_sound_over_a_stream(directed):
    """Over many publishes, every pair whose distance changed has an
    endpoint in ``V_aff`` — the subtrees of the changed shortcuts'
    lower endpoints only."""
    if directed:
        graph = one_way_network(150)
        oracle = DynamicDiCH(graph)
        batches = arc_batches(graph, 30, 2, seed=8)
    else:
        graph = road_network(300, seed=8)
        oracle = DynamicCH(graph)
        batches = road_batches(graph, 30, 2, seed=8)
    pairs = random_pairs(graph.n, 300, seed=8)
    before = [oracle.distance(s, t) for s, t in pairs]
    changed_pairs = narrower = 0
    for batch in batches:
        changed = changed_list(oracle.apply(batch))
        aff = ch_affected_vertices(oracle.index, changed)
        after = [oracle.distance(s, t) for s, t in pairs]
        for (s, t), old, new in zip(pairs, before, after):
            if old != new:
                changed_pairs += 1
                assert s in aff or t in aff, (s, t, old, new)
        everything = reference_both_endpoints(oracle.index, changed)
        assert aff <= everything
        narrower += len(aff) < len(everything)
        before = after
    assert changed_pairs > 0 and narrower > 0

