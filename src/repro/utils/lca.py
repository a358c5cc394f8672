"""Constant-time lowest-common-ancestor queries.

H2H answers a distance query ``(s, t)`` by taking the lowest common
ancestor ``a`` of ``s`` and ``t`` in the tree decomposition and minimizing
``dis(s)[i] + dis(t)[i]`` over ``i in pos(a)`` (Section 2 of the paper).
The LCA step must be O(1) for H2H's query time to be dominated by the
``|pos(a)|``-length scan, so we use the classic Euler tour + sparse-table
range-minimum reduction: O(n log n) preprocessing, O(1) per query.
:meth:`LCAOracle.lca_many` answers a whole batch of pairs with the same
table lookups as numpy gathers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = ["LCAOracle"]


class LCAOracle:
    """Sparse-table LCA over a rooted forest given as a parent array.

    Parameters
    ----------
    parent:
        ``parent[v]`` is the parent of vertex ``v``, or ``-1`` for a root.
        Vertices are dense integers ``0 .. n-1``.

    Notes
    -----
    The construction performs an iterative DFS (recursion-free, so deep
    road-network decompositions cannot blow the Python stack), records the
    Euler tour of depths, and builds a sparse table of argmin positions.
    """

    def __init__(self, parent: Sequence[int]) -> None:
        n = len(parent)
        self._n = n
        children: List[List[int]] = [[] for _ in range(n)]
        roots: List[int] = []
        for v, p in enumerate(parent):
            if p < 0:
                roots.append(v)
            else:
                children[p].append(v)

        # Euler tour: vertex visited once per entry and once after each child.
        tour: List[int] = []
        depth_at: List[int] = []
        first_seen = [-1] * n
        depth = [0] * n
        tree_of = [-1] * n
        for root in roots:
            stack: List[tuple] = [(root, iter(children[root]))]
            tree_of[root] = root
            first_seen[root] = len(tour)
            tour.append(root)
            depth_at.append(0)
            while stack:
                v, it = stack[-1]
                child = next(it, None)
                if child is None:
                    stack.pop()
                    if stack:
                        parent_v = stack[-1][0]
                        tour.append(parent_v)
                        depth_at.append(depth[parent_v])
                    continue
                depth[child] = depth[v] + 1
                tree_of[child] = root
                first_seen[child] = len(tour)
                tour.append(child)
                depth_at.append(depth[child])
                stack.append((child, iter(children[child])))

        self._depth = depth
        #: Root of each vertex's tree, or None when there is one tree.
        #: Between two trees the tour's range minimum is a root, so
        #: only this check tells a cross-tree pair from a real LCA.
        self._tree_of: Optional[List[int]] = tree_of if len(roots) > 1 else None
        #: Each vertex's depth and the root of its tree, as int64 arrays
        #: for batch callers.
        self.depths = np.asarray(depth, dtype=np.int64)
        self.roots = np.asarray(tree_of, dtype=np.int64)
        # The scalar :meth:`lca` reads Python lists (``_first``,
        # ``_tour_list``, ``_depths_list``) and ``_table.item``: an int
        # from a list costs a fraction of a numpy scalar index.
        # :meth:`lca_many` gathers from the arrays.
        self._first = first_seen
        self._tour_list = tour
        self._depths_list = depth_at
        #: Tour index of each vertex's first visit, as an array for
        #: :meth:`lca_many`.
        self.first = np.asarray(first_seen, dtype=np.int64)
        self._tour = np.asarray(tour, dtype=np.int64)
        self._build_sparse_table(np.asarray(depth_at, dtype=np.int64))

    def _build_sparse_table(self, depths: np.ndarray) -> None:
        m = len(depths)
        levels = max(1, m.bit_length())
        # table[k] holds, for each i, the tour index of the min-depth entry
        # in the window [i, i + 2^k).
        table = [np.arange(m, dtype=np.int64)]
        for k in range(1, levels):
            half = 1 << (k - 1)
            prev = table[-1]
            if half >= m:
                break
            left = prev[: m - 2 * half + 1] if m - 2 * half + 1 > 0 else prev[:0]
            right = prev[half : half + len(left)]
            if len(left) == 0:
                break
            choose_right = depths[right] < depths[left]
            table.append(np.where(choose_right, right, left))
        # Stacked into one (levels x m) array; level k is valid on
        # [0, m - 2^k], which is every index a query of that level reads.
        stacked = np.zeros((len(table), m), dtype=np.int32)
        for k, row in enumerate(table):
            stacked[k, : len(row)] = row
        self._table = stacked
        self._depths_at = depths

    def depth(self, v: int) -> int:
        """Depth of *v* (roots have depth 0)."""
        return self._depth[v]

    def lca(self, u: int, v: int) -> int:
        """The lowest common ancestor of *u* and *v*.

        Raises
        ------
        IndexError
            If either vertex id is out of range.
        ValueError
            If *u* and *v* lie in different trees of the forest.
        """
        if u == v:
            return u
        lo, hi = self._first[u], self._first[v]
        tree_of = self._tree_of
        if tree_of is not None and tree_of[u] != tree_of[v]:
            raise ValueError(f"vertices {u} and {v} are not in the same tree")
        if lo > hi:
            lo, hi = hi, lo
        k = (hi - lo + 1).bit_length() - 1
        table = self._table
        left = table.item(k, lo)
        right = table.item(k, hi - (1 << k) + 1)
        depths = self._depths_list
        best = right if depths[right] < depths[left] else left
        return self._tour_list[best]

    def lca_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """:meth:`lca` of each pair ``(us[i], vs[i])``, as an int64 array.

        The same two table lookups per pair, done as numpy gathers, and
        the same answer as :meth:`lca` for every pair, and the same
        ``ValueError`` if any pair spans two trees.  The ids must
        already be in range: callers validate them, because numpy would
        wrap a negative index silently.
        """
        if self._tree_of is not None:
            if np.any(self.roots[us] != self.roots[vs]):
                raise ValueError("a pair's vertices are not in the same tree")
        a, b = self.first[us], self.first[vs]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        # floor(log2(span)), exact for integers below 2**53.
        k = np.frexp(hi - lo + 1)[1] - 1
        left = self._table[k, lo]
        right = self._table[k, hi - (1 << k) + 1]
        depths = self._depths_at
        best = np.where(depths[right] < depths[left], right, left)
        return self._tour[best]

    def is_ancestor(self, a: int, v: int) -> bool:
        """True if *a* is an ancestor of *v* (or equal to it)."""
        return self.lca(a, v) == a
