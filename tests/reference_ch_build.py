"""Reference CH builds: Algorithm 1 contracted over dict-of-dicts and
Equation (<>) evaluated one shortcut at a time.

The library builds the shortcut structure from a symbolic elimination
and computes every weight, support and witness in a vectorised level
pass over the elimination tree (:mod:`repro.ch.indexing`).  These are
the contraction loops and scalar support passes that build replaced,
kept so ``tests/test_ch_build_levels.py`` can assert that both produce
byte-equal slot stores and equal op counts, undirected and directed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.ch.shortcut_graph import ShortcutGraph, ShortcutStructure
from repro.directed.graph import DiRoadNetwork
from repro.errors import IndexError_, OrderingError
from repro.graph.graph import RoadNetwork
from repro.order.min_degree import minimum_degree_ordering
from repro.order.ordering import Ordering
from repro.utils.counters import OpCounter, resolve_counter


def reference_ch_indexing(
    graph: RoadNetwork,
    ordering: Optional[Ordering] = None,
    counter: Optional[OpCounter] = None,
    with_support: bool = True,
) -> ShortcutGraph:
    """Algorithm 1 over a working dict-of-dicts, then the scalar support
    pass."""
    if ordering is None:
        ordering = minimum_degree_ordering(graph)
    if len(ordering) != graph.n:
        raise OrderingError(
            f"ordering covers {len(ordering)} vertices, graph has {graph.n}"
        )
    ops = resolve_counter(counter)
    rank = ordering.rank

    # Working adjacency: starts as a copy of G, accumulates shortcuts.
    adj: List[Dict[int, float]] = [
        {v: w for v, w in graph.neighbor_items(u)} for u in range(graph.n)
    ]

    for u in ordering.order:
        higher = [(v, w) for v, w in adj[u].items() if rank[v] > rank[u]]
        for i, (v, w_uv) in enumerate(higher):
            adj_v = adj[v]
            for w, w_uw in higher[i + 1 :]:
                ops.add("contract_pair")
                candidate = w_uv + w_uw
                current = adj_v.get(w)
                if current is None or candidate < current:
                    adj_v[w] = candidate
                    adj[w][v] = candidate

    index = ShortcutGraph(ordering, adj, {(u, v): w for u, v, w in graph.edges()})
    if with_support:
        rebuild_supports(index, counter)
    return index


def rebuild_supports(index: ShortcutGraph, counter: Optional[OpCounter] = None) -> None:
    """Recompute ``sup``/``via`` of every shortcut (every arc of a
    directed store) from Equation (<>), one at a time; the weights must
    already satisfy it."""
    weights, _, sups, vias = index.slot_views()
    for s, (u, v) in enumerate(index.shortcuts()):
        weight, support, witness = index._equation(
            u, v, index.edge_weight(u, v), counter
        )
        if weight != weights[s]:
            raise IndexError_(
                f"shortcut <{u}, {v}> weight {weights[s]} violates "
                f"Equation (<>) value {weight}"
            )
        sups[s] = support
        vias[s] = witness


def reference_directed_ch_indexing(
    graph: DiRoadNetwork,
    ordering: Optional[Ordering] = None,
    counter: Optional[OpCounter] = None,
) -> ShortcutGraph:
    """Directed Algorithm 1 (one relax per direction) over dict-of-dicts,
    laid out in the ``(2, slots)`` store, then the scalar support pass."""
    skeleton = graph.symmetrized()
    if ordering is None:
        ordering = minimum_degree_ordering(skeleton)
    ops = resolve_counter(counter)
    rank = ordering.rank
    n = graph.n

    # weights[u][v] = phi(u -> v); initialized from arcs, inf for the
    # missing direction of one-way streets.
    weights: List[Dict[int, float]] = [{} for _ in range(n)]
    for u, v, w in graph.arcs():
        weights[u][v] = w
        weights[v].setdefault(u, math.inf)

    for u in ordering.order:
        higher = [v for v in weights[u] if rank[v] > rank[u]]
        for i, v in enumerate(higher):
            for w in higher[i + 1 :]:
                ops.add("contract_pair")
                # v -> u -> w and w -> u -> v.
                for a, b in ((v, w), (w, v)):
                    candidate = weights[a][u] + weights[u][b]
                    if candidate < weights[a].get(b, math.inf):
                        weights[a][b] = candidate
                    else:
                        weights[a].setdefault(b, math.inf)
                    weights[b].setdefault(a, math.inf)

    up = [
        sorted((v for v in nbrs if rank[v] > rank[u]), key=rank.__getitem__)
        for u, nbrs in enumerate(weights)
    ]
    st = ShortcutStructure(rank, up)
    pairs = list(zip(st.low.tolist(), st.high.tolist()))
    phi = np.array(
        [[weights[x][y] for x, y in pairs], [weights[y][x] for x, y in pairs]],
        dtype=np.float64,
    )
    slots = len(pairs)
    arc = np.zeros(phi.shape, dtype=bool)
    phi_g = np.full(phi.shape, math.inf)
    for u, v, w in graph.arcs():
        k = st.slot[u][v] + slots * (rank[u] > rank[v])
        arc.reshape(-1)[k] = True
        phi_g.reshape(-1)[k] = w
    sup = np.zeros(phi.shape, dtype=np.int64)
    via = np.full(phi.shape, -1, dtype=np.int64)
    index = ShortcutGraph.from_slots(ordering, st, arc, phi, phi_g, sup, via)
    rebuild_supports(index)
    return index
