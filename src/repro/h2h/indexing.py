"""H2HIndexing — the construction algorithm of [37] (Section 5 recap).

Construction proceeds in three steps:

1. build the shortcut graph ``sc(G)`` with CHIndexing;
2. derive the tree decomposition ``T`` (parents = lowest-ranked upward
   neighbors);
3. fill the distance arrays top-down: ``dis(u)`` is computed from the
   distance arrays of higher-ranked vertices via Equations (*) and
   (nabla), so any order that processes ancestors before descendants
   (reverse ``pi``, or BFS order of ``T``) is valid.

Step 3 dominates and is vectorized here: for each vertex ``u`` and each
upward neighbor ``v``, the candidate vector ``phi(<u, v>) + sd(v, .)``
over all ancestor depths is assembled from one contiguous slice of
``dis(v)`` plus one fancy-indexed gather of the column ``depth(v)``
along ``anc(u)``; the distance row is the elementwise minimum and the
support row counts the attaining candidates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.graph import RoadNetwork
from repro.ch.indexing import ch_indexing
from repro.ch.shortcut_graph import ShortcutGraph
from repro.h2h.index import H2HIndex
from repro.h2h.tree import TreeDecomposition
from repro.order.ordering import Ordering
from repro.perf import kernels
from repro.utils.counters import OpCounter, resolve_counter

__all__ = ["h2h_indexing", "fill_distance_arrays", "fill_row"]


def fill_row(
    sc: ShortcutGraph,
    tree: TreeDecomposition,
    dis: np.ndarray,
    sup: np.ndarray,
    u: int,
) -> None:
    """Compute ``dis(u)`` / ``sup(u)`` from Equation (*), vectorized, in
    every label matrix (delegates to :func:`repro.perf.kernels.fill_row`).

    Requires the rows of every vertex in ``nbr+(u)`` (all ancestors of
    *u*) to be final already; any top-down processing order satisfies
    this.  Shared by full construction and the Section 7 subtree
    rebuilds after edge insertion.
    """
    kernels.fill_row(sc, tree, dis, sup, u)


def fill_distance_arrays(
    sc: ShortcutGraph,
    tree: TreeDecomposition,
    counter: Optional[OpCounter] = None,
) -> H2HIndex:
    """Step 3 of H2HIndexing: the distance/support matrices, one per
    row of *sc*'s weights — ``(n, height)`` for an undirected CH store,
    ``(2, n, height)`` for a directed one.

    Exposed separately because the recompute-from-scratch baseline of
    Exp-1 measures exactly this step (the tree and position arrays are
    weight independent and never need rebuilding under weight updates),
    and the rebuilds of both H2H facades refill their labels with it.
    """
    ops = resolve_counter(counter)
    count = len(sc.slot_weights)
    shape = (tree.n, tree.height) if count == 1 else (count, tree.n, tree.height)
    depth = tree.depth
    dis = np.full(shape, np.inf, dtype=np.float64)
    sup = np.zeros(shape, dtype=np.int32)

    for u in tree.top_down_order:
        fill_row(sc, tree, dis, sup, u)
        ops.add("star_term", count * len(sc.upward(u)) * int(depth[u]))

    return H2HIndex(sc, tree, dis, sup)


def h2h_indexing(
    graph: RoadNetwork,
    ordering: Optional[Ordering] = None,
    counter: Optional[OpCounter] = None,
) -> H2HIndex:
    """Construct the full H2H index of *graph* (H2HIndexing, [37]).

    Parameters
    ----------
    graph:
        The road network; must be connected.
    ordering:
        Contraction order; minimum degree heuristic when omitted.
    counter:
        Optional instrumentation (shared with the CHIndexing step).

    Example
    -------
    >>> from repro.graph import grid_network
    >>> index = h2h_indexing(grid_network(3, 3, seed=1))
    >>> index.num_super_shortcuts() > 0
    True
    """
    sc = ch_indexing(graph, ordering, counter)
    tree = TreeDecomposition(sc)
    return fill_distance_arrays(sc, tree, counter)
