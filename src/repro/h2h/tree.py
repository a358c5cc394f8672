"""The tree decomposition underlying H2H (Section 2 of the paper).

Given the shortcut graph ``sc(G)``, each vertex ``u`` (except the
highest-ranked one) has a parent ``x(u)``: the *lowest-ranked* upward
neighbor of ``u``.  The result is a tree ``T`` rooted at the
highest-ranked vertex with two crucial properties ([37], restated in the
paper):

1. for any two vertices ``s`` and ``t`` with lowest common ancestor
   ``a``, every shortest ``s``-``t`` path passes through
   ``X(a) = {a} ∪ nbr+(a)``;
2. the upward neighbors of every ``u`` are ancestors of ``u`` in ``T``.

The paper numbers depths from 1 at the root; this implementation uses
0-based depths (root depth 0) so that depth doubles as an index into the
per-vertex ancestor/distance arrays.

Besides the parent/depth/ancestor arrays, the decomposition precomputes
the auxiliary structures of Section 5 ("Auxiliary Structures"):

* DFS discovery/finishing times (``u.d`` / ``u.f``) giving O(1)
  ancestor-descendant tests;
* for each vertex ``a``, its downward shortcut neighbors ``nbr-(a)``
  sorted by discovery time, so that ``nbr-(a) ∩ des(u)`` is a contiguous
  range located by binary search — the paper's ``first(<<u, a>>)``.

It also holds the weight-independent *query pages* of the batch read
plane (:func:`repro.perf.kernels.pos_scan_many`): the LCA sparse table
(:meth:`TreeDecomposition.lca_many`) and ``pos`` padded into one
matrix.  Like the rest of the tree they are built once and shared by
every clone and epoch.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import DisconnectedGraphError, IndexError_
from repro.ch.shortcut_graph import ShortcutGraph
from repro.utils.lca import LCAOracle

__all__ = ["TreeDecomposition"]


def _pad_rows(rows: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Stack non-empty int rows into a matrix padded with each row's
    first entry; returns it and the row lengths."""
    lengths = np.fromiter((len(row) for row in rows), dtype=np.int32, count=len(rows))
    flat = np.concatenate(rows).astype(np.int32, copy=False)
    starts = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    padded = np.repeat(flat[starts][:, None], int(lengths.max()), axis=1)
    row_ids = np.repeat(np.arange(len(rows)), lengths)
    padded[row_ids, np.arange(len(flat)) - starts[row_ids]] = flat
    return padded, lengths


class TreeDecomposition:
    """The H2H tree decomposition of a shortcut graph.

    Attributes
    ----------
    parent:
        ``parent[u]`` is ``x(u)``, or ``-1`` for the root.
    depth:
        0-based depth per vertex (numpy int32).
    root:
        The highest-ranked vertex.
    anc:
        ``anc[u]`` is a numpy array with ``anc[u][d]`` = the ancestor of
        ``u`` at depth ``d`` (``anc[u][depth[u]] = u``), the paper's
        ancestor array.
    pos:
        ``pos[u]`` is a numpy array of the depths of
        ``X(u) = nbr+(u) ∪ {u}``, the paper's position array.
    pos_pad / pos_len:
        ``pos`` as one ``n x max|pos|`` int32 matrix and its row lengths.
        Row ``u`` is padded with copies of ``pos[u][0]``, so a ``min``
        over a padded row equals the ``min`` over ``pos[u]``.
    """

    def __init__(self, sc: ShortcutGraph) -> None:
        n = sc.n
        if n == 0:
            raise IndexError_("cannot decompose an empty shortcut graph")
        ordering = sc.ordering
        parent = [-1] * n
        for u in range(n):
            up = sc.upward(u)
            if up:
                parent[u] = up[0]  # lowest-ranked upward neighbor = x(u)
            elif u != ordering.top():
                raise DisconnectedGraphError(
                    f"vertex {u} has no upward neighbors but is not the "
                    "top-ranked vertex; the graph must be connected"
                )
        self.sc = sc
        self.parent: List[int] = parent
        self.root: int = ordering.top()
        self.n = n

        children: List[List[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if p >= 0:
                children[p].append(v)
        self.children = children

        # Depth and ancestor arrays, top-down (iterative BFS keeps memory
        # proportional to the output).
        depth = np.zeros(n, dtype=np.int32)
        anc: List[np.ndarray] = [np.empty(0, dtype=np.int32)] * n
        anc[self.root] = np.array([self.root], dtype=np.int32)
        order_top_down: List[int] = [self.root]
        frontier = [self.root]
        while frontier:
            next_frontier: List[int] = []
            for p in frontier:
                for c in children[p]:
                    depth[c] = depth[p] + 1
                    anc[c] = np.append(anc[p], np.int32(c))
                    next_frontier.append(c)
            order_top_down.extend(next_frontier)
            frontier = next_frontier
        if len(order_top_down) != n:
            raise DisconnectedGraphError(
                "tree decomposition does not span all vertices; "
                "the graph must be connected"
            )
        self.depth = depth
        self.anc = anc
        #: Vertices in a valid top-down (BFS) processing order.
        self.top_down_order = order_top_down

        # Position arrays: depths of X(u) = nbr+(u) + {u}, ascending.
        self.pos: List[np.ndarray] = [
            np.array(sorted(int(depth[v]) for v in list(sc.upward(u)) + [u]),
                     dtype=np.int32)
            for u in range(n)
        ]
        self.pos_pad, self.pos_len = _pad_rows(self.pos)

        # DFS discovery/finishing times (single pass, iterative).
        disc = np.zeros(n, dtype=np.int64)
        fin = np.zeros(n, dtype=np.int64)
        clock = 0
        stack: List[tuple] = [(self.root, False)]
        while stack:
            v, done = stack.pop()
            if done:
                clock += 1
                fin[v] = clock
                continue
            clock += 1
            disc[v] = clock
            stack.append((v, True))
            for c in reversed(children[v]):
                stack.append((c, False))
        self.disc = disc
        self.fin = fin

        # nbr-(a) sorted by discovery time, plus the matching key arrays
        # for binary search (the basis of first(<<u, a>>)).
        self.down_by_disc: List[List[int]] = [
            sorted(sc.downward(a), key=lambda x: disc[x]) for a in range(n)
        ]
        self.down_disc_keys: List[List[int]] = [
            [int(disc[x]) for x in row] for row in self.down_by_disc
        ]

        self._lca = LCAOracle(parent)

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of *u* and *v*."""
        return self._lca.lca(u, v)

    def lca_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """:meth:`lca` of each pair ``(us[i], vs[i])`` (ids must be in
        range), as an int64 array."""
        return self._lca.lca_many(us, vs)

    def is_ancestor(self, a: int, v: int) -> bool:
        """True if *a* is an ancestor of *v* (inclusive), via DFS times."""
        return self.disc[a] <= self.disc[v] and self.fin[v] <= self.fin[a]

    def ancestor_at_depth(self, u: int, d: int) -> int:
        """The ancestor of *u* at depth *d* (``anc(u)[d]``)."""
        return int(self.anc[u][d])

    # ------------------------------------------------------------------
    # The paper's first(<<u, a>>) and nbr-(a) ∩ des(u)
    # ------------------------------------------------------------------
    def first(self, u: int, a: int) -> int:
        """The smallest index into ``nbr-(a)`` (sorted by discovery time)
        whose vertex was discovered strictly after *u*.

        The paper precomputes this per super-shortcut; computing it by
        binary search costs ``O(log |nbr-(a)|)``, which fits inside the
        ``||AFF|| log ||AFF||`` budget of relative subboundedness.
        """
        return bisect_right(self.down_disc_keys[a], int(self.disc[u]))

    def down_in_descendants(self, a: int, u: int) -> Iterator[int]:
        """Iterate ``nbr-(a) ∩ des(u)`` (proper descendants of *u*).

        Cost is ``O(log |nbr-(a)| + k)`` for ``k`` results: the members
        form the contiguous range of ``nbr-(a)`` starting at
        ``first(u, a)`` and ending at the last vertex discovered before
        *u* finished.
        """
        row = self.down_by_disc[a]
        fin_u = self.fin[u]
        for i in range(self.first(u, a), len(row)):
            v = row[i]
            if self.disc[v] > fin_u:
                break
            yield v

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Maximum 0-based depth plus one (number of levels)."""
        return int(self.depth.max()) + 1

    def num_super_shortcuts(self) -> int:
        """Total super-shortcuts, counted as the paper's Table 2 does:
        one per (vertex, ancestor) pair including the vertex itself."""
        return int(self.depth.sum()) + self.n

    def validate(self) -> None:
        """Check the decomposition's structural invariants.

        Verifies property (2) of Section 2 — every upward neighbor of
        ``u`` is an ancestor of ``u`` — plus parent/depth/DFS coherence.
        """
        for u in range(self.n):
            p = self.parent[u]
            if p >= 0 and self.depth[u] != self.depth[p] + 1:
                raise IndexError_(f"depth of {u} inconsistent with parent {p}")
            for v in self.sc.upward(u):
                if not self.is_ancestor(v, u):
                    raise IndexError_(
                        f"upward neighbor {v} of {u} is not an ancestor"
                    )
            ancestors = self.anc[u]
            if int(ancestors[self.depth[u]]) != u:
                raise IndexError_(f"anc({u}) does not end at {u}")

    def __repr__(self) -> str:
        return (
            f"TreeDecomposition(n={self.n}, height={self.height}, "
            f"super_shortcuts={self.num_super_shortcuts()})"
        )
