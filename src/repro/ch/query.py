"""CH distance and path queries (Section 2, "Query").

A query ``(s, t)`` runs a bidirectional variant of Dijkstra's algorithm
on ``sc(G)`` in which a shortcut is relaxed only when it leads to a
higher-ranked vertex.  Both searches therefore explore only the *upward
closure* of their source, which is tiny compared with the graph; the
answer is the best distance over vertices settled by both searches.

Path queries additionally unpack every shortcut on the meeting path into
the underlying road-network edges using the ``via`` witnesses maintained
by the index.

Batches (:func:`ch_distance_many`) are answered the way H2H answers,
from labels built for the batch alone.  Every ``nbr+(v)`` is a clique,
so ``v``'s upward search space is exactly its ancestor chain in the
elimination tree (see :mod:`repro.serve.aff`).  The upward label
``L(v)[k]`` -- the shortest upward path from ``v`` to its depth-``k``
ancestor -- obeys ``L(v)[k] = min over x in nbr+(v) of phi(v, x) +
L(x)[k]`` with ``L(v)[depth(v)] = 0``, and ``sd(s, t)`` is the minimum of
``L(s)[k] + L(t)[k]`` over the common ancestors ``k <= depth(lca(s,
t))``.  The labels cover the batch's ancestor closure only and are
dropped with the answers: nothing is stored or maintained.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import QueryError
from repro.ch.shortcut_graph import ShortcutGraph, ShortcutStructure
from repro.perf.kernels import csr_slots, query_ids
from repro.utils.counters import OpCounter, resolve_counter
from repro.utils.lca import LCAOracle

__all__ = ["ch_distance", "ch_distance_many", "ch_path", "upward_search"]

#: Label cells one numpy step of :func:`ch_distance_many` relaxes or
#: scans at most.  It bounds the transient arrays (about 32 bytes a
#: cell) by a constant, whatever the batch size and the tree depth.
BLOCK = 8_192


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


class _BatchTree:
    """The weight-independent tree data of :func:`ch_distance_many`:
    built on a structure's first batch and kept as its ``batch_tree``,
    so clones share it and a structure from Section 7's edge insertion
    builds its own.  ``row_cells[v]`` is the number of label cells
    ``v``'s ``nbr+`` row relaxes: ``depth(x) + 1`` summed over ``x``."""

    __slots__ = ("parent", "depth", "height", "ptr", "high", "row_cells", "lca")

    def __init__(self, st: ShortcutStructure) -> None:
        self.lca = LCAOracle(st.parent)
        self.parent = np.asarray(st.parent, dtype=np.int64)
        self.depth = self.lca.depths
        self.height = np.asarray(st.height, dtype=np.int64)
        self.ptr = np.asarray(st.ptr, dtype=np.int64)
        self.high = st.high
        cells = np.concatenate(([0], np.cumsum(self.depth[st.high] + 1)))
        self.row_cells = cells[self.ptr[1:]] - cells[self.ptr[:-1]]


def _upward_labels(
    tree: _BatchTree, weights: np.ndarray, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(labels, off, relaxed)``: ``L(v)[k]`` at ``labels[off[v] + k]``
    for every ``v`` of the ancestor closure of *vertices*, over the slot
    *weights* of the upward direction, and the number of label cells
    relaxed.

    Filled one elimination-tree height at a time, tallest first: every
    vertex of ``nbr+(v)`` is an ancestor of ``v`` and stands taller, so
    its label is final when ``v``'s is filled.  Slot ``<v, x>`` relaxes
    ``L(v)[k]`` with ``phi(v, x) + L(x)[k]`` for ``k = 0 .. depth(x)``.
    A height's rows run in steps of at most :data:`BLOCK` cells (a
    longer row runs alone).
    """
    parent, depth = tree.parent, tree.depth
    mark = np.zeros(len(parent), dtype=bool)
    frontier = vertices
    while frontier.size:
        mark[frontier] = True
        frontier = parent[frontier]
        frontier = frontier[frontier >= 0]
        frontier = frontier[~mark[frontier]]
    closure = np.flatnonzero(mark)
    height = tree.height[closure]
    tallest_first = np.argsort(-height, kind="stable")
    closure = closure[tallest_first]
    height = height[tallest_first]
    lengths = depth[closure] + 1
    ends = np.cumsum(lengths)
    off = np.zeros(len(parent), dtype=np.int64)
    off[closure] = ends - lengths
    labels = np.full(int(ends[-1]), math.inf)
    labels[ends - 1] = 0.0
    ptr, high = tree.ptr, tree.high
    cum = np.concatenate(([0], np.cumsum(tree.row_cells[closure])))
    cuts = [*(np.flatnonzero(np.diff(height)) + 1).tolist(), len(closure)]
    start = 0
    for stop in cuts:
        while start < stop:
            end = int(np.searchsorted(cum, cum[start] + BLOCK, side="right")) - 1
            end = min(max(end, start + 1), stop)
            rows = closure[start:end]
            row, slots = csr_slots(ptr[rows], ptr[rows + 1] - ptr[rows])
            x = high[slots]
            src = off[x]
            j, at = csr_slots(src, depth[x] + 1)
            dst = at + (off[rows][row] - src)[j]
            np.minimum.at(labels, dst, labels[at] + weights[slots][j])
            start = end
    return labels, off, int(cum[-1])


def ch_distance_many(
    index,
    sources,
    targets,
    counter: Optional[OpCounter] = None,
) -> np.ndarray:
    """``sd(s, t)`` for every pair ``(sources[i], targets[i])``, as a
    float64 array: the batch form of :func:`ch_distance`, equal to it
    pair by pair whenever the path sums are exact in float64 (integral
    or halved weights, as every generator and update stream here
    produces); the two add a path's weights in different orders, so
    other weights may differ in the last bit.

    One upward label pass over the batch's ancestor closure (see the
    module docstring), then ``min over k <= depth(lca(s, t)) of L(s)[k]
    + L(t)[k]`` per pair, in steps of at most :data:`BLOCK` cells:
    ``inf`` across two trees of the forest, ``0.0`` for ``s == t``.
    *index* is a :class:`ShortcutGraph` or a directed store, whose
    ``(2, slots)`` weights give the sources' labels from row 0 (``TO``,
    up from ``s``) and the targets' from row 1 (``FROM``, down to
    ``t``).  Adds the relaxed label cells to *counter*'s
    ``label_relax``; ``query_relax`` is the per-pair search's measure
    and stays untouched.

    Raises
    ------
    QueryError
        If any vertex id is out of range (negative ones included, which
        numpy indexing would otherwise wrap), before any work.
    """
    s, t = query_ids(index.n, sources, targets)
    answers = np.where(s == t, 0.0, math.inf)
    st = index.structure
    tree = st.batch_tree
    if tree is None:
        tree = st.batch_tree = _BatchTree(st)
    roots = tree.lca.roots
    pick = np.flatnonzero((s != t) & (roots[s] == roots[t]))
    if not pick.size:
        return answers
    s, t = s[pick], t[pick]
    weights = index.slot_weights
    if weights.ndim == 1:
        labels_s, off_s, relaxed = _upward_labels(
            tree, weights, np.concatenate((s, t))
        )
        labels_t, off_t = labels_s, off_s
    else:
        labels_s, off_s, relaxed = _upward_labels(tree, weights[0], s)
        labels_t, off_t, more = _upward_labels(tree, weights[1], t)
        relaxed += more
    if relaxed:
        resolve_counter(counter).add("label_relax", relaxed)
    cells = tree.depth[tree.lca.lca_many(s, t)] + 1
    base_s = off_s[s]
    gap = off_t[t] - base_s
    cum = np.concatenate(([0], np.cumsum(cells)))
    start = 0
    while start < len(pick):
        end = int(np.searchsorted(cum, cum[start] + BLOCK, side="right")) - 1
        end = max(end, start + 1)
        j, at = csr_slots(base_s[start:end], cells[start:end])
        total = labels_s[at] + labels_t[at + gap[start:end][j]]
        answers[pick[start:end]] = np.minimum.reduceat(
            total, cum[start:end] - cum[start]
        )
        start = end
    return answers


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
