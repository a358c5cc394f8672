"""CH distance and path queries (Section 2, "Query").

A query ``(s, t)`` runs a bidirectional variant of Dijkstra's algorithm
on ``sc(G)`` in which a shortcut is relaxed only when it leads to a
higher-ranked vertex.  Both searches therefore explore only the *upward
closure* of their source, which is tiny compared with the graph; the
answer is the best distance over vertices settled by both searches.

Path queries additionally unpack every shortcut on the meeting path into
the underlying road-network edges using the ``via`` witnesses maintained
by the index.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

from repro.errors import QueryError
from repro.ch.shortcut_graph import ShortcutGraph
from repro.utils.counters import OpCounter, resolve_counter

__all__ = ["ch_distance", "ch_path", "upward_search"]


def upward_search(
    index: ShortcutGraph,
    source: int,
    counter: Optional[OpCounter] = None,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Full upward Dijkstra from *source* over ``sc(G)``.

    Returns ``(dist, parent)`` restricted to the upward closure of
    *source*.  Exposed separately because tests and the H2H tree
    decomposition proofs use the whole search space.  Each settled
    vertex relaxes exactly ``nbr+(u)``, counted in one bulk add.
    """
    # Hot loop: direct access by design.  Row u's weights are the
    # contiguous slots ptr[u] .. ptr[u + 1] of the slot store.
    up, weights, ptr = index._up, index._wv, index._ptr
    heappush, heappop = heapq.heappush, heapq.heappop
    dist: Dict[int, float] = {source: 0.0}
    parent: Dict[int, int] = {source: -1}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    relaxed = 0
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        nbrs = up[u]
        relaxed += len(nbrs)
        for v, w in zip(nbrs, weights[ptr[u] : ptr[u + 1]].tolist()):
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                parent[v] = u
                heappush(heap, (nd, v))
    if relaxed:  # a search that relaxes nothing leaves the counter as it was
        resolve_counter(counter).add("upward_relax", relaxed)
    return dist, parent


def _bidirectional(
    index: ShortcutGraph, s: int, t: int, counter: Optional[OpCounter]
) -> Tuple[float, int, Dict[int, int], Dict[int, int]]:
    """Shared engine: returns (distance, meeting vertex, parents_f, parents_b).

    One loop runs both upward searches.  Each step pops the side whose
    heap top is smaller (forward on ties) and stops once that top
    reaches *best* -- the rule ``min(top_f, top_b) >= best``.  A settled
    vertex meets the other side through its distance there and relaxes
    exactly ``nbr+(u)``: the list ``index._up[u]``, walked together
    with its weight row, one contiguous slice of the slot store.
    Distances are dense lists (``inf`` when unreached), so a relaxation
    reads no dict; parents stay dicts, which
    keeps the per-query allocation to two lists.  Relaxations are
    tallied locally and added to *counter* once.
    """
    n = index.n
    if not 0 <= s < n:
        raise QueryError(f"source {s} out of range [0, {n})")
    if not 0 <= t < n:
        raise QueryError(f"target {t} out of range [0, {n})")
    if s == t:
        return 0.0, s, {s: -1}, {t: -1}
    # Hot loop: direct access by design (see upward_search).
    up, weights, ptr = index._up, index._wv, index._ptr
    heappush, heappop = heapq.heappush, heapq.heappop
    inf = math.inf
    dist_f = [inf] * n
    dist_b = [inf] * n
    dist_f[s] = 0.0
    dist_b[t] = 0.0
    parent_f: Dict[int, int] = {s: -1}
    parent_b: Dict[int, int] = {t: -1}
    heap_f: List[Tuple[float, int]] = [(0.0, s)]
    heap_b: List[Tuple[float, int]] = [(0.0, t)]
    best = inf
    meet = -1
    relaxed = 0
    while True:
        top_f = heap_f[0][0] if heap_f else inf
        top_b = heap_b[0][0] if heap_b else inf
        if top_f <= top_b:
            if top_f >= best:  # min(top_f, top_b) >= best
                break
            heap, dist, parent, other = heap_f, dist_f, parent_f, dist_b
        else:
            if top_b >= best:
                break
            heap, dist, parent, other = heap_b, dist_b, parent_b, dist_f
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        through = d + other[u]
        if through < best:
            best = through
            meet = u
        nbrs = up[u]
        relaxed += len(nbrs)
        for v, w in zip(nbrs, weights[ptr[u] : ptr[u + 1]].tolist()):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heappush(heap, (nd, v))
    if relaxed:
        resolve_counter(counter).add("query_relax", relaxed)
    return best, meet, parent_f, parent_b


def ch_distance(
    index: ShortcutGraph,
    s: int,
    t: int,
    counter: Optional[OpCounter] = None,
) -> float:
    """The shortest distance ``sd(s, t)`` (``inf`` when disconnected)."""
    best, _, _, _ = _bidirectional(index, s, t, counter)
    return best


def _unpack(index: ShortcutGraph, u: int, v: int) -> List[int]:
    """Expand shortcut ``<u, v>`` into the underlying edge path (excl. *u*)."""
    result: List[int] = []
    stack: List[Tuple[int, int]] = [(u, v)]
    while stack:
        a, b = stack.pop()
        witness = index.via(a, b)
        if witness is None:
            result.append(b)
        else:
            # Expand right half first so the left half is processed next.
            stack.append((witness, b))
            stack.append((a, witness))
    return result


def ch_path(
    index: ShortcutGraph,
    s: int,
    t: int,
    counter: Optional[OpCounter] = None,
) -> Optional[List[int]]:
    """An actual shortest path from *s* to *t* in the road network.

    Returns the vertex list of a shortest path, or ``None`` when *t* is
    unreachable.  Shortcuts on the up-down meeting path are unpacked into
    original edges via the ``via`` witnesses.
    """
    best, meet, parent_f, parent_b = _bidirectional(index, s, t, counter)
    if math.isinf(best):
        return None
    if s == t:
        return [s]

    # Shortcut-level path: s -> ... -> meet -> ... -> t.
    forward: List[int] = [meet]
    while parent_f[forward[-1]] != -1:
        forward.append(parent_f[forward[-1]])
    forward.reverse()  # s ... meet
    backward: List[int] = [meet]
    while parent_b[backward[-1]] != -1:
        backward.append(parent_b[backward[-1]])
    # backward is meet ... t already in the right direction.

    hops = list(zip(forward[:-1], forward[1:])) + list(
        zip(backward[:-1], backward[1:])
    )
    path = [s]
    for a, b in hops:
        path.extend(_unpack(index, a, b))
    return path
