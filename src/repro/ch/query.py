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

from repro.errors import IndexError_, QueryError
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
    index, s: int, t: int, counter: Optional[OpCounter]
) -> Tuple[float, int, List[float], List[float]]:
    """Shared engine: returns (distance, meeting vertex, dist_f, dist_b).

    One loop runs both upward searches.  Each step pops the side whose
    heap top is smaller (forward on ties) and stops once that top
    reaches *best* -- the rule ``min(top_f, top_b) >= best``.  A settled
    vertex meets the other side through its distance there and relaxes
    exactly ``nbr+(u)``: the structure's list ``up[u]``, walked together
    with its weight row, one contiguous slice of the slot store.
    Distances are dense lists (``inf`` when unreached), so a relaxation
    reads no dict, and no parent is recorded: :func:`ch_path` rebuilds
    the meeting path from the two distance lists.  Relaxations are
    tallied locally and added to *counter* once.

    *index* is a :class:`ShortcutGraph`, undirected or directed: each
    side reads its own row of the slot weights (:func:`_side_weights`).
    """
    n = index.n
    if not 0 <= s < n:
        raise QueryError(f"source {s} out of range [0, {n})")
    if not 0 <= t < n:
        raise QueryError(f"target {t} out of range [0, {n})")
    if s == t:
        return 0.0, s, [], []  # no search, so no distances to walk
    # Hot loop: direct access by design (see upward_search).  Slot row u
    # of a side is weights[ptr[u] : ptr[u + 1]] of that side's view.
    st = index.structure
    up, ptr = st.up, st.ptr
    weights_f, weights_b = _side_weights(index)
    heappush, heappop = heapq.heappush, heapq.heappop
    inf = math.inf
    dist_f = [inf] * n
    dist_b = [inf] * n
    dist_f[s] = 0.0
    dist_b[t] = 0.0
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
            heap, dist, other = heap_f, dist_f, dist_b
            weights = weights_f
        else:
            if top_b >= best:
                break
            heap, dist, other = heap_b, dist_b, dist_f
            weights = weights_b
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
                heappush(heap, (nd, v))
    if relaxed:
        resolve_counter(counter).add("query_relax", relaxed)
    return best, meet, dist_f, dist_b


def _side_weights(index):
    """The forward and backward rows of *index*'s ``(D, slots)`` weights
    as memoryviews: the forward side reads row ``TO`` (``phi(u -> v)``,
    out of ``s``) and the backward side the last row, ``FROM``
    (``phi(v -> u)``, into ``t``) on the directed store and the one row
    on the undirected store."""
    weights = index.slot_weights
    return memoryview(weights[0]), memoryview(weights[-1])


def _walk_down(st, weights, dist: List[float], x: int, source: int) -> List[int]:
    """The upward search path from *source* to *x*, read back from the
    search's final distances: from *x*, step to a lower neighbour ``p``
    with ``dist[p] + phi(p, x) == dist[x]``.  Such a ``p`` exists for
    every reached vertex (the one whose relaxation set ``dist[x]``, with
    the same float addition, settled before it), and each step lowers
    the rank, so the walk ends at *source*."""
    path = [x]
    while x != source:
        for p, slot in zip(st.down[x], st.down_slots[x]):
            if dist[p] + weights[slot] == dist[x]:
                x = p
                break
        else:  # unreachable after a consistent search: fail, never loop
            raise IndexError_(f"no search predecessor of vertex {x}")
        path.append(x)
    path.reverse()
    return path


def ch_distance(
    index,
    s: int,
    t: int,
    counter: Optional[OpCounter] = None,
) -> float:
    """The shortest distance ``sd(s, t)`` (``inf`` when disconnected).

    *index* is a :class:`ShortcutGraph`; on the directed (``D = 2``)
    store the answer is ``sd(s -> t)``: a forward-upward search from
    ``s`` over out-weights meets a backward-upward search from ``t``
    over in-weights, as in the classic directed CH."""
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
    *index* is a :class:`ShortcutGraph`; a directed store's
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
    if len(weights) == 1:  # both sides read the one row: one label pass
        labels_s, off_s, relaxed = _upward_labels(
            tree, weights[0], np.concatenate((s, t))
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
    best, meet, dist_f, dist_b = _bidirectional(index, s, t, counter)
    if math.isinf(best):
        return None
    if s == t:
        return [s]

    # Shortcut-level path: s -> ... -> meet -> ... -> t.
    st = index.structure
    weights_f, weights_b = _side_weights(index)
    forward = _walk_down(st, weights_f, dist_f, meet, s)  # s ... meet
    backward = _walk_down(st, weights_b, dist_b, meet, t)[::-1]  # meet ... t

    hops = list(zip(forward[:-1], forward[1:])) + list(
        zip(backward[:-1], backward[1:])
    )
    path = [s]
    for a, b in hops:
        path.extend(_unpack(index, a, b))
    return path
