"""The minimum degree heuristic ordering and symbolic elimination.

Following the paper (Section 2, after Algorithm 1) and [39], contraction
orders are produced by the *minimum degree heuristic* [12]: repeatedly
pick the vertex with the fewest uncontracted neighbors, contract it (make
its remaining neighbors a clique), and continue.  The heuristic is weight
independent, so the shortcut set it induces is stable under weight
updates — the property all incremental algorithms in this library rely
on.

The elimination performed here is purely structural.  Its fill edges are
exactly the shortcuts of the eventual shortcut graph that are not edges
of ``G``, so :func:`repro.ch.indexing.ch_indexing` lays the shortcut set
out from :func:`eliminate`'s fill — reusing the fill of the minimum
degree run when it computes the order itself — and only then computes
the weights.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set, Tuple

from repro.errors import DisconnectedGraphError, OrderingError
from repro.graph.graph import RoadNetwork
from repro.order.ordering import Ordering

__all__ = ["minimum_degree_ordering", "eliminate", "check_connected"]


def eliminate(
    graph: RoadNetwork, ordering: Optional[Ordering] = None
) -> Tuple[Ordering, List[Tuple[int, int]]]:
    """Eliminate *graph* symbolically; return the ordering and fill edges.

    Without *ordering* the order is the minimum degree heuristic's; with
    it, the vertices are eliminated in that order.

    Returns
    -------
    (ordering, fill):
        *ordering* is the contraction order; *fill* lists the edges
        (canonical ``(u, v)`` with ``u < v``) added during elimination,
        i.e. the shortcuts that are **not** original edges.

    Raises
    ------
    OrderingError
        If *ordering* does not cover the vertices of *graph*.

    Notes
    -----
    Minimum degree ties are broken by vertex id, making the ordering
    deterministic.  The heap uses lazy deletion: stale ``(degree, v)``
    entries are skipped when the recorded degree disagrees with the
    current one.
    """
    if ordering is None:
        return _minimum_degree(graph)
    if len(ordering) != graph.n:
        raise OrderingError(
            f"ordering covers {len(ordering)} vertices, graph has {graph.n}"
        )
    return ordering, _fill_in_order(graph, ordering)


def _minimum_degree(graph: RoadNetwork) -> Tuple[Ordering, List[Tuple[int, int]]]:
    """Minimum degree elimination: contract, clique the neighbors, repeat."""
    n = graph.n
    adjacency: List[Set[int]] = [set(graph.neighbors(v)) for v in range(n)]
    heap: List[Tuple[int, int]] = [(len(adjacency[v]), v) for v in range(n)]
    heapq.heapify(heap)
    contracted = [False] * n
    order: List[int] = []
    fill: List[Tuple[int, int]] = []

    while heap:
        degree, u = heapq.heappop(heap)
        if contracted[u] or degree != len(adjacency[u]):
            continue
        contracted[u] = True
        order.append(u)
        neighbors = [v for v in adjacency[u] if not contracted[v]]
        # Make the remaining neighbors a clique (the fill of this step).
        for i, v in enumerate(neighbors):
            adj_v = adjacency[v]
            adj_v.discard(u)
            for w in neighbors[i + 1 :]:
                if w not in adj_v:
                    adj_v.add(w)
                    adjacency[w].add(v)
                    fill.append((v, w) if v < w else (w, v))
            heapq.heappush(heap, (len(adj_v), v))
        adjacency[u] = set()

    return Ordering(order), fill


def _fill_in_order(graph: RoadNetwork, ordering: Ordering) -> List[Tuple[int, int]]:
    """The fill of eliminating *graph* in *ordering*, row by row.

    The higher neighbors of ``u`` once ``u``'s turn comes are its higher
    edges plus, for every child ``c`` of ``u`` in the elimination tree
    (``u`` is the lowest-ranked of ``c``'s higher neighbors), ``c``'s
    higher neighbors other than ``u``: every fill edge ``<u, w>`` comes
    from a lower ``t`` that reaches ``u`` up the tree, and each step up
    keeps ``w``.  One set union per tree edge replaces the clique loop.
    """
    rank = ordering.rank
    by_rank = rank.__getitem__
    pending: List[List[Set[int]]] = [[] for _ in range(graph.n)]
    fill: List[Tuple[int, int]] = []
    for u in ordering.order:
        r = rank[u]
        direct = {v for v in graph.neighbors(u) if rank[v] > r}
        row = direct.union(*pending[u])
        row.discard(u)
        pending[u] = []
        if row:
            pending[min(row, key=by_rank)].append(row)
            fill.extend((u, w) if u < w else (w, u) for w in row - direct)
    return fill


def check_connected(graph: RoadNetwork) -> None:
    """Raise :class:`DisconnectedGraphError` unless *graph* is connected."""
    if not graph.is_connected():
        raise DisconnectedGraphError(
            "minimum_degree_ordering requires a connected graph; "
            f"found {len(graph.connected_components())} components"
        )


def minimum_degree_ordering(graph: RoadNetwork, require_connected: bool = True) -> Ordering:
    """The minimum-degree-heuristic contraction order of *graph*.

    Parameters
    ----------
    graph:
        The road network; must be connected unless *require_connected* is
        False (CH tolerates disconnection, H2H's tree decomposition does
        not).

    Raises
    ------
    DisconnectedGraphError
        If *require_connected* and the graph is disconnected.
    """
    if require_connected:
        check_connected(graph)
    ordering, _ = eliminate(graph)
    return ordering
