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
  range located by binary search — the paper's ``first(<<u, a>>)``;
* ``nbr-`` and ``nbr+`` as flat CSR arrays, which the level-synchronous
  IncH2H± gathers over a whole tree depth at a time.

It also holds the weight-independent *query pages* of the batch read
plane (:func:`repro.perf.kernels.pos_scan_many`): the LCA sparse table
(:meth:`TreeDecomposition.lca_many`) and ``pos`` padded into one
matrix.  Like the rest of the tree they are built once and shared by
every clone and epoch.
"""

from __future__ import annotations

from itertools import chain
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
        ancestor array.  Every row is a view into one flat int32 array,
        ``anc_flat``, at ``anc_ptr[u] .. anc_ptr[u + 1]``.
    pos:
        ``pos[u]`` is a numpy array of the depths of
        ``X(u) = nbr+(u) ∪ {u}``, the paper's position array.
    pos_pad / pos_len:
        ``pos`` as one ``n x max|pos|`` int32 matrix and its row lengths.
        Row ``u`` is padded with copies of ``pos[u][0]``, so a ``min``
        over a padded row equals the ``min`` over ``pos[u]``.
    down_ptr / down_len / down_idx / down_key / down_slot:
        ``nbr-`` as a flat CSR (see :meth:`_build_csr`); likewise
        up_ptr / up_len / up_idx for ``nbr+``.
    down_base / up_base / up_depth / disc_fin:
        Per CSR slot, where the listed vertex's row starts in an
        ``(n, height)`` label matrix and (``nbr+``) its depth; per
        vertex, ``[disc, fin]``.
    """

    def __init__(self, sc: ShortcutGraph) -> None:
        n = sc.n
        if n == 0:
            raise IndexError_("cannot decompose an empty shortcut graph")
        # x(u), the lowest-ranked upward neighbor: the shortcut
        # structure's elimination tree, shared with every clone.
        parent = sc.structure.parent
        top = sc.ordering.top()
        for u, p in enumerate(parent):
            if p < 0 and u != top:
                raise DisconnectedGraphError(
                    f"vertex {u} has no upward neighbors but is not the "
                    "top-ranked vertex; the graph must be connected"
                )
        self.sc = sc
        self.parent: List[int] = parent
        self.root: int = top
        self.n = n

        children: List[List[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if p >= 0:
                children[p].append(v)
        self.children = children

        # Depths, top-down (iterative BFS keeps memory proportional to
        # the output).
        depth = np.zeros(n, dtype=np.int32)
        order_top_down: List[int] = [self.root]
        frontier = [self.root]
        while frontier:
            next_frontier: List[int] = []
            for p in frontier:
                for c in children[p]:
                    depth[c] = depth[p] + 1
                    next_frontier.append(c)
            order_top_down.extend(next_frontier)
            frontier = next_frontier
        if len(order_top_down) != n:
            raise DisconnectedGraphError(
                "tree decomposition does not span all vertices; "
                "the graph must be connected"
            )
        self.depth = depth
        #: Vertices in a valid top-down (BFS) processing order.
        self.top_down_order = order_top_down

        # Ancestor arrays: one flat int32 array, row u at
        # anc_ptr[u] .. anc_ptr[u + 1] (its parent's row, then u).
        anc_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(depth + 1, out=anc_ptr[1:])
        anc_flat = np.empty(int(anc_ptr[-1]), dtype=np.int32)
        starts = anc_ptr.tolist()
        for u in order_top_down:
            s, d = starts[u], int(depth[u])
            if d:
                ps = starts[parent[u]]
                anc_flat[s : s + d] = anc_flat[ps : ps + d]
            anc_flat[s + d] = u
        self.anc_flat = anc_flat
        self.anc_ptr = anc_ptr
        self.anc: List[np.ndarray] = [
            anc_flat[starts[u] : starts[u + 1]] for u in range(n)
        ]

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

        # nbr-(a) sorted by discovery time (the basis of first(<<u, a>>)).
        self.down_by_disc: List[List[int]] = [
            sorted(sc.downward(a), key=lambda x: disc[x]) for a in range(n)
        ]
        self._build_csr(sc)

        self._lca = LCAOracle(parent)

    def _build_csr(self, sc: ShortcutGraph) -> None:
        """The weight-independent CSRs of the level-synchronous IncH2H±
        (:mod:`repro.h2h.inch2h`): int32 vertex ids, int64 offsets/keys.

        ``down_idx`` lists ``nbr-(a)`` sorted by discovery time, row *a*
        at ``down_ptr[a] .. down_ptr[a + 1]`` (``down_len[a]`` slots, and
        likewise ``up_len`` for ``nbr+``); ``down_key`` holds
        ``a * key_base + disc[v]`` per slot, ascending, so one
        ``searchsorted`` locates ``first(<<u, a>>)`` for a whole level.
        ``up_idx`` lists ``nbr+(u)`` in :meth:`ShortcutGraph.upward`
        order — the slot order of the shortcut store — and
        ``down_slot[i]`` is the ``up_idx`` slot of the same shortcut as
        ``down_idx[i]``, so one weight array in slot order
        (:attr:`repro.ch.shortcut_graph.ShortcutGraph.slot_weights`)
        serves both CSRs.

        ``down_base`` / ``up_base`` hold ``v * height`` for the vertex
        ``v`` of each slot (int64): the flat start of ``v``'s row in a
        label matrix, whose width is the tree's height.  ``up_depth``
        holds ``depth(v)``.  With ``disc_fin`` (``[disc, fin]`` per
        vertex), they save the level engine one gather or product per
        block.
        """
        n = self.n
        self.key_base = 2 * n + 1  # DFS times run 1 .. 2n
        down_len = np.fromiter(
            (len(row) for row in self.down_by_disc), dtype=np.int64, count=n
        )
        self.down_len = down_len
        self.down_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(down_len, out=self.down_ptr[1:])
        self.down_idx = np.fromiter(
            chain.from_iterable(self.down_by_disc),
            dtype=np.int32,
            count=int(self.down_ptr[-1]),
        )
        rows = np.repeat(np.arange(n, dtype=np.int64), down_len)
        self.down_key = rows * self.key_base + self.disc[self.down_idx]
        up_len = np.fromiter(
            (len(sc.upward(u)) for u in range(n)), dtype=np.int64, count=n
        )
        self.up_len = up_len
        self.up_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(up_len, out=self.up_ptr[1:])
        self.up_idx = np.fromiter(
            chain.from_iterable(sc.upward(u) for u in range(n)),
            dtype=np.int32,
            count=int(self.up_ptr[-1]),
        )
        up_to_down = self.shortcut_slots(
            np.repeat(np.arange(n, dtype=np.int64), up_len), self.up_idx
        )
        self.down_slot = np.empty(len(up_to_down), dtype=np.int32)
        self.down_slot[up_to_down] = np.arange(len(up_to_down), dtype=np.int32)
        height = np.int64(self.height)
        self.down_base = self.down_idx * height
        self.up_base = self.up_idx * height
        self.up_depth = self.depth[self.up_idx]
        self.disc_fin = np.stack((self.disc, self.fin), axis=1)

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
        lo, _hi = self.descendant_ranges(a, u)
        return int(lo) - int(self.down_ptr[a])

    def descendant_ranges(self, a, u) -> Tuple[np.ndarray, np.ndarray]:
        """The ``down_idx`` slots ``lo .. hi`` holding ``nbr-(a) ∩ des(u)``
        for each pair ``(a[i], u[i])`` (or one scalar pair), *a* an
        ancestor of *u*: two binary searches on ``down_key``, one for
        ``first(<<u, a>>)`` and one for the last vertex discovered before
        *u* finished."""
        base = np.asarray(a, dtype=np.int64) * self.key_base
        found = self.down_key.searchsorted(
            self.disc_fin[u] + base[..., None], side="right"
        )
        return found[..., 0], found[..., 1]

    def down_in_descendants(self, a: int, u: int) -> Iterator[int]:
        """Iterate ``nbr-(a) ∩ des(u)`` (proper descendants of *u*).

        Cost is ``O(log |nbr-(a)| + k)`` for ``k`` results: the members
        form the contiguous range of ``nbr-(a)`` starting at
        ``first(u, a)`` and ending at the last vertex discovered before
        *u* finished.
        """
        lo, hi = self.descendant_ranges(a, u)
        return iter(self.down_idx[lo:hi].tolist())

    def shortcut_slots(self, x, y) -> np.ndarray:
        """The ``down_idx`` slot of each shortcut ``<x[i], y[i]>``: the
        entry of the lower endpoint in the row of the higher one (the
        higher endpoint is the ancestor, so the shallower)."""
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        x_higher = self.depth[x] < self.depth[y]
        high = np.where(x_higher, x, y)
        low = np.where(x_higher, y, x)
        return np.searchsorted(self.down_key, high * self.key_base + self.disc[low])

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
        ``u`` is an ancestor of ``u`` — plus parent/depth/DFS coherence,
        that every ``anc`` row is its slice of ``anc_flat`` (its parent's
        row, then *u*), and that the CSRs list ``nbr-``/``nbr+`` with
        ``down_slot`` pointing at the same shortcut.
        """
        down_key = self.down_key
        if np.any(down_key[1:] <= down_key[:-1]):
            raise IndexError_("down_key is not strictly ascending")
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
            lo, hi = int(self.anc_ptr[u]), int(self.anc_ptr[u + 1])
            if ancestors.base is not self.anc_flat or not np.array_equal(
                ancestors, self.anc_flat[lo:hi]
            ):
                raise IndexError_(f"anc({u}) is not its slice of anc_flat")
            if int(ancestors[self.depth[u]]) != u or (
                p >= 0 and not np.array_equal(ancestors[:-1], self.anc[p])
            ):
                raise IndexError_(f"anc({u}) is not anc({p}) followed by {u}")
            down = self.down_idx[self.down_ptr[u] : self.down_ptr[u + 1]]
            if down.tolist() != self.down_by_disc[u]:
                raise IndexError_(f"down_idx row {u} differs from nbr-({u})")
            up = slice(self.up_ptr[u], self.up_ptr[u + 1])
            if self.up_idx[up].tolist() != list(self.sc.upward(u)):
                raise IndexError_(f"up_idx row {u} differs from nbr+({u})")
            slots = self.down_slot[self.down_ptr[u] : self.down_ptr[u + 1]]
            owners = np.searchsorted(self.up_ptr, slots, side="right") - 1
            if np.any(self.up_idx[slots] != u) or not np.array_equal(owners, down):
                raise IndexError_(f"down_slot row {u} misses its shortcuts")

    def __repr__(self) -> str:
        return (
            f"TreeDecomposition(n={self.n}, height={self.height}, "
            f"super_shortcuts={self.num_super_shortcuts()})"
        )
