"""The shortcut graph ``sc(G)`` — the CH index (Section 2 of the paper).

Given a road network ``G`` and a total order ``pi`` over its vertices,
the shortcut graph contains a shortcut ``<u, v>`` for every pair of
vertices connected by a *valley path* (a path whose interior vertices all
rank below both endpoints); the shortcut's weight is the weight of the
shortest valley path.  Equivalently, the shortcut set is the elimination
fill of ``pi`` plus the original edges, and each weight satisfies
Equation (<>) of the paper::

    phi(e) = min( phi(e, G),
                  phi(e_1') + phi(e_1''), ..., phi(e_k') + phi(e_k'') )

where ``(e_i', e_i'')`` ranges over the *downward shortcut pairs* of
``e`` — pairs ``(<t, u>, <t, v>)`` with ``pi(t) < min(pi(u), pi(v))``.

Besides weights, the index stores per shortcut:

* ``sup(e)`` — the *support*: how many terms of Equation (<>) attain the
  minimum (used by the increase algorithms to detect when a weight must
  grow);
* ``via(e)`` — a witness: ``None`` when the original edge attains the
  minimum, else a common lower neighbor ``t`` attaining it (used for path
  unpacking);
* ``phi(e, G)`` — the edge's weight in ``G`` (``inf`` for a pure
  shortcut or a deleted road), which Algorithms 2-5 read and write.

One flat slot store
-------------------
Every shortcut owns a *slot*: an index into flat per-shortcut arrays.
Slots follow the ``nbr+`` rows — the shortcuts ``<u, v>``, ``v`` in
``nbr+(u)``, occupy ``ptr[u] .. ptr[u + 1]`` in rank order of ``v`` —
so :meth:`ShortcutGraph.upward_weight_row` is one contiguous slice and
the slot order is the tree decomposition's ``nbr+`` CSR.

The paper's CH is weight independent (Section 2): weight updates never
change the shortcut set.  The store is therefore split in two:

* a :class:`ShortcutStructure` — the ``nbr+``/``nbr-`` lists, each
  vertex's neighbor-to-slot map, the row offsets, the slot endpoints,
  DCH±'s queue priorities, which slots are edges of ``G`` and the
  elimination tree with its pre-order ranges and heights — built once
  and shared by every clone;
* four arrays indexed by slot — ``phi(e)`` and ``phi(e, G)`` (float64),
  ``sup(e)`` and ``via(e)`` (int64, ``-1`` for the original edge) — which
  :meth:`ShortcutGraph.clone` copies.  Scalar reads and writes go
  through memoryviews over them, so the maintenance loops trade plain
  Python floats and ints, never numpy scalars.

Only Section 7's edge insertion changes the structure
(:meth:`ShortcutGraph.add_structure`); it builds a new structure for
that index alone (copy-on-structure), so clones sharing the old one
never see the change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.order.ordering import Ordering
from repro.perf.kernels import csr_slots
from repro.utils.counters import OpCounter, resolve_counter

__all__ = ["Shortcut", "ShortcutGraph", "ShortcutStructure"]

#: A shortcut identified by its canonical endpoint pair (smaller id first).
Shortcut = Tuple[int, int]

_INF = math.inf


@dataclass(frozen=True)
class _RecomputeResult:
    """Outcome of evaluating Equation (<>) for one shortcut."""

    weight: float
    support: int
    via: Optional[int]


class ShortcutStructure:
    """The weight-independent half of the slot store, shared by clones.

    Attributes
    ----------
    up / down:
        ``nbr+(u)`` / ``nbr-(u)`` per vertex, in rank order.
    down_slots:
        The slot of ``<t, u>`` for each ``t`` in ``down[u]``, aligned.
    slot:
        ``slot[u][v]``: the slot of ``<u, v>``, one dict per vertex.
    ptr:
        Row offsets: ``nbr+(u)``'s shortcuts hold slots
        ``ptr[u] .. ptr[u + 1]``.
    low / high:
        The lower- and higher-ranked endpoint of every slot (int32).
    prio:
        ``rank[low] * n + rank[high]`` per slot (int64): DCH±'s queue
        order, lower endpoint's rank first.  Weight independent, so every
        clone shares it.
    low_view / high_view / prio_view:
        Memoryviews over ``low``, ``high`` and ``prio``: the maintenance
        loops read plain Python ints through them.
    edge:
        ``edge[s]``: slot *s* is an edge of ``G`` (bool).
    parent:
        The elimination tree: ``parent[v]`` is the lowest-ranked vertex of
        ``nbr+(v)`` (H2H's ``x(v)``), or ``-1`` when ``nbr+(v)`` is empty
        (a root; a disconnected graph gives a forest).
    order / pre / size:
        A pre-order of that forest (``order[pre[v]] == v``) and each
        vertex's subtree size, so the subtree of ``v`` is exactly
        ``order[pre[v] : pre[v] + size[v]]``.  Because every ``nbr+(v)``
        is a clique, every vertex of ``nbr+(v)`` is an ancestor of ``v``:
        the subtree of ``x`` is the set of vertices that can climb to
        ``x`` along ``nbr+``, which is what the serving layer's CH
        ``V_aff`` (:func:`repro.serve.aff.ch_affected_vertices`) needs.
    height:
        Each vertex's height in that forest (0 for a leaf, else 1 plus
        its tallest child's).  Every vertex of ``nbr+(v)`` is an
        ancestor of ``v``, so it stands strictly taller than ``v``: the
        build's level pass (:meth:`triangles`) groups by it.
    batch_tree:
        The weight-independent tree data of the batch CH query
        (:func:`repro.ch.query.ch_distance_many`): depths and an
        :class:`~repro.utils.lca.LCAOracle`, built on the first batch
        and shared by every clone from then on (``None`` until then).
    """

    __slots__ = (
        "up",
        "down",
        "down_slots",
        "slot",
        "ptr",
        "low",
        "high",
        "prio",
        "low_view",
        "high_view",
        "prio_view",
        "edge",
        "parent",
        "order",
        "pre",
        "size",
        "height",
        "batch_tree",
    )

    def __init__(self, rank: Sequence[int], up: List[List[int]]) -> None:
        n = len(up)
        lengths = [len(row) for row in up]
        ptr = [0, *accumulate(lengths)]
        low = np.repeat(np.arange(n, dtype=np.int32), lengths)
        high = np.fromiter(chain.from_iterable(up), dtype=np.int32, count=ptr[-1])
        rank_arr = np.asarray(rank, dtype=np.int64)
        # nbr-(v): the slots whose higher end is v, by rank of the lower end.
        by_high = np.lexsort((rank_arr[low], high))
        bounds = [0, *accumulate(np.bincount(high, minlength=n).tolist())]
        # One int object per vertex and one per slot, shared by the rows
        # and both slot maps: an object array indexes by reference, where
        # tolist() of an int array makes a fresh int per entry.
        slot_ids = np.arange(ptr[-1]).astype(object)
        lows = np.arange(n).astype(object)[low[by_high]].tolist()
        slots = slot_ids[by_high].tolist()
        slot_ids = slot_ids.tolist()
        rows = list(zip(bounds, bounds[1:]))
        self.up = up
        self.down = [lows[a:b] for a, b in rows]
        self.down_slots = [slots[a:b] for a, b in rows]
        self.slot: List[Dict[int, int]] = [
            dict(zip(row, slot_ids[ptr[u] : ptr[u + 1]])) for u, row in enumerate(up)
        ]
        for by_v, row, row_slots in zip(self.slot, self.down, self.down_slots):
            by_v.update(zip(row, row_slots))
        self.ptr = ptr
        self.low = low
        self.high = high
        self.prio = rank_arr[low] * n + rank_arr[high]
        self.low_view = memoryview(low)
        self.high_view = memoryview(high)
        self.prio_view = memoryview(self.prio)
        self.edge = np.zeros(ptr[-1], dtype=bool)
        self._build_tree(rank)
        self.batch_tree = None

    def _build_tree(self, rank: Sequence[int]) -> None:
        """``parent``, ``order``, ``pre`` and ``size`` of the elimination
        forest.  A parent outranks its children, so sizes accumulate in
        ascending rank and pre-order positions are handed out in
        descending rank: each vertex takes the next free position under
        its parent and reserves ``size`` positions for its subtree."""
        n = len(self.up)
        parent = [row[0] if row else -1 for row in self.up]
        by_rank = [0] * n
        for v, r in enumerate(rank):
            by_rank[r] = v
        size = [1] * n
        height = [0] * n
        for v in by_rank:
            p = parent[v]
            if p >= 0:
                size[p] += size[v]
                if height[p] <= height[v]:
                    height[p] = height[v] + 1
        pre = [0] * n
        free = [0] * n  # next unassigned pre-order position under v
        roots = 0
        for v in reversed(by_rank):
            p = parent[v]
            if p < 0:
                at = roots
                roots += size[v]
            else:
                at = free[p]
                free[p] = at + size[v]
            pre[v] = at
            free[v] = at + 1
        order = [0] * n
        for v, at in enumerate(pre):
            order[at] = v
        self.parent = parent
        self.order = order
        self.pre = pre
        self.size = size
        self.height = height

    @classmethod
    def from_pairs(
        cls, rank: Sequence[int], a: np.ndarray, b: np.ndarray
    ) -> "ShortcutStructure":
        """The structure whose shortcuts are the pairs ``<a[i], b[i]>``
        (each pair once, in either orientation): one sort by slot key
        lays out every ``nbr+`` row.  The rows hold one int object per
        vertex, not one per slot."""
        n = len(rank)
        rank_arr = np.asarray(rank, dtype=np.int64)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        lower = rank_arr[a] < rank_arr[b]
        low = np.where(lower, a, b)
        high = np.where(lower, b, a)
        sorted_high = high[np.argsort(low * n + rank_arr[high])].tolist()
        highs = list(map(list(range(n)).__getitem__, sorted_high))
        ptr = [0, *accumulate(np.bincount(low, minlength=n).tolist())]
        return cls(rank, [highs[p:q] for p, q in zip(ptr, ptr[1:])])

    def slots_of(self, rank: Sequence[int], a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The slots of the shortcuts ``<a[i], b[i]>``, which must exist
        (either orientation; int64)."""
        rank_arr = np.asarray(rank, dtype=np.int64)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        lower = rank_arr[a] < rank_arr[b]
        keys = np.where(lower, a, b) * len(self.up) + rank_arr[np.where(lower, b, a)]
        return np.searchsorted(self._keys(), keys)

    def _keys(self) -> np.ndarray:
        """``low * n + rank[high]`` per slot (int64), ascending: slots are
        sorted by lower endpoint, then by the rank of the higher one, so
        a pair's slot is one ``searchsorted`` away."""
        n = len(self.up)
        return self.low.astype(np.int64) * n + self.prio % n

    def triangles(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every scp+ triangle ``(u; v, w)`` — ``v`` before ``w`` in
        ``nbr+(u)`` — as three int32 slot arrays: the legs ``<u, v>`` and
        ``<u, w>`` and the target ``<v, w>``.

        One group per elimination-tree height of ``u``, ascending.  A
        target's lower end ``v`` is an ancestor of ``u``, so it stands
        taller: a group's legs were the targets of earlier groups only,
        and a pass over the groups in order reads final leg values.
        Each triangle is one Equation (<>) term of its target, and each
        term is one triangle.
        """
        m = len(self.low)
        if m == 0:
            return
        n = len(self.up)
        keys = self._keys()
        high = self.high.astype(np.int64)
        high_rank = self.prio % n
        ptr = np.asarray(self.ptr, dtype=np.int64)
        # Partners of slot s: the later slots of its row, one triangle each.
        partners = (ptr[1:][self.low] - np.arange(1, m + 1)).astype(np.int32)
        level = np.asarray(self.height, dtype=np.int64)[self.low]
        legs = np.flatnonzero(partners)
        legs = legs[np.argsort(level[legs], kind="stable")].astype(np.int32)
        cuts = np.flatnonzero(np.diff(level[legs])) + 1
        for group in np.split(legs, cuts):
            row, b = csr_slots(group + 1, partners[group])
            a = group[row]
            t = np.searchsorted(keys, high[a] * n + high_rank[b])
            yield a, b.astype(np.int32), t.astype(np.int32)

    def canonical(self) -> Tuple[List[int], List[int]]:
        """Both endpoints of every slot, smaller id first."""
        return (
            np.minimum(self.low, self.high).tolist(),
            np.maximum(self.low, self.high).tolist(),
        )

    def validate(self, rank: Sequence[int]) -> None:
        """Raise :class:`IndexError_` unless every slot maps back,
        ``nbr+(u)`` / ``nbr-(u)`` are the rank-sorted higher / lower
        neighbors of ``u`` matching the slot rows, every ``nbr+(u)`` is a
        clique, the priorities match *rank* and the elimination-tree
        arrays describe the tree of ``nbr+`` (both CH stores call it)."""
        for s, (low, high) in enumerate(zip(self.low.tolist(), self.high.tolist())):
            if self.slot[low].get(high) != s or self.slot[high].get(low) != s:
                raise IndexError_(f"slot {s} <{low}, {high}> does not map back")
        if sum(map(len, self.slot)) != 2 * len(self.low):
            raise IndexError_("a slot map holds a pair with no slot")
        by_rank = rank.__getitem__
        for u, nbrs in enumerate(self.slot):
            higher = sorted((v for v in nbrs if rank[v] > rank[u]), key=by_rank)
            lower = sorted((v for v in nbrs if rank[v] < rank[u]), key=by_rank)
            if self.up[u] != higher:
                raise IndexError_(f"nbr+({u}) is not its higher neighbors")
            if self.down[u] != lower:
                raise IndexError_(f"nbr-({u}) is not its lower neighbors")
            if self.high[self.ptr[u] : self.ptr[u + 1]].tolist() != higher:
                raise IndexError_(f"slots of row {u} are not nbr+({u})")
            if [nbrs[t] for t in lower] != self.down_slots[u]:
                raise IndexError_(f"down_slots({u}) do not match nbr-({u})")
            # DCH± walks nbr+(x) as the scp+ row of every <x, y>, reading
            # each partner <w, y> without a membership test.
            for i, a in enumerate(higher):
                if not all(map(self.slot[a].__contains__, higher[i + 1 :])):
                    raise IndexError_(f"nbr+({u}) is not a clique")
        rank_arr = np.asarray(rank, dtype=np.int64)
        if not np.array_equal(
            self.prio, rank_arr[self.low] * len(self.up) + rank_arr[self.high]
        ):
            raise IndexError_("slot priorities do not match the ranks")
        self._validate_tree()

    def _validate_tree(self) -> None:
        """Raise :class:`IndexError_` unless ``parent`` is the first
        ``nbr+`` entry, ``order`` / ``pre`` are inverse permutations,
        every ``size`` is 1 plus its children's and every child's range
        nests inside its parent's — together, each range
        ``order[pre[v] : pre[v] + size[v]]`` is exactly ``v``'s subtree —
        and every ``height`` is 0 for a leaf, else 1 plus its tallest
        child's."""
        n = len(self.up)
        parent, order, pre, size = self.parent, self.order, self.pre, self.size
        if parent != [row[0] if row else -1 for row in self.up]:
            raise IndexError_("tree parent is not the first nbr+ entry")
        if sorted(order) != list(range(n)) or any(
            pre[v] != at for at, v in enumerate(order)
        ):
            raise IndexError_("tree order and pre are not inverse permutations")
        total = [1] * n
        for v, p in enumerate(parent):
            if p >= 0:
                total[p] += size[v]
                if not (pre[p] < pre[v] and pre[v] + size[v] <= pre[p] + size[p]):
                    raise IndexError_(
                        f"pre-order range of {v} is not inside its parent's"
                    )
        if total != size:
            raise IndexError_("tree size is not 1 plus the children's sizes")
        tall = [0] * n
        for v, p in enumerate(parent):
            if p >= 0 and tall[p] <= self.height[v]:
                tall[p] = self.height[v] + 1
        if tall != self.height:
            raise IndexError_("tree height is not 1 plus the tallest child's")


class ShortcutGraph:
    """The CH index: shortcut weights, supports and adjacency over ``pi``.

    Instances are produced by :func:`repro.ch.indexing.ch_indexing`; the
    constructor wires up pre-computed state and is not meant to be called
    directly by library users.
    """

    __slots__ = (
        "ordering",
        "_rank",
        "_st",
        "_up",
        "_down",
        "_down_slots",
        "_slot",
        "_ptr",
        "_w",
        "_ew",
        "_sup",
        "_via",
        "_wv",
        "_ewv",
        "_supv",
        "_viav",
    )

    def __init__(
        self,
        ordering: Ordering,
        adj: List[Dict[int, float]],
        edge_weights: Dict[Shortcut, float],
    ) -> None:
        """Lay out *adj* (``adj[u][v] = phi(<u, v>)``, symmetric) and the
        edges of ``G`` (*edge_weights*, canonical keys) in one pass;
        supports start at 0 and witnesses at ``None``."""
        self.ordering = ordering
        self._rank = rank = ordering.rank
        up = [
            sorted((v for v in nbrs if rank[v] > rank[u]), key=rank.__getitem__)
            for u, nbrs in enumerate(adj)
        ]
        st = ShortcutStructure(rank, up)
        m = st.ptr[-1]
        weights = np.array(
            [nbrs[v] for nbrs, row in zip(adj, up) for v in row], dtype=np.float64
        )
        try:
            edge_slots = [st.slot[u][v] for u, v in edge_weights]
        except (KeyError, IndexError):
            raise IndexError_("every edge of G must be a shortcut") from None
        st.edge[edge_slots] = True
        edge_w = np.full(m, _INF)
        edge_w[edge_slots] = list(edge_weights.values())
        self._adopt(
            st,
            weights,
            edge_w,
            np.zeros(m, dtype=np.int64),
            np.full(m, -1, dtype=np.int64),
        )

    @classmethod
    def from_slots(
        cls,
        ordering: Ordering,
        st: ShortcutStructure,
        weights: np.ndarray,
        edge_w: np.ndarray,
        sup: np.ndarray,
        via: np.ndarray,
    ) -> "ShortcutGraph":
        """Wrap structure *st* (over *ordering*) and its four slot arrays
        as they are, without copying."""
        index = cls.__new__(cls)
        index.ordering = ordering
        index._rank = ordering.rank
        index._adopt(st, weights, edge_w, sup, via)
        return index

    def _adopt(self, st, weights, edge_w, sup, via) -> None:
        """Install structure *st* and the four slot arrays."""
        self._st = st
        self._up = st.up
        self._down = st.down
        self._down_slots = st.down_slots
        self._slot = st.slot
        self._ptr = st.ptr
        self._w, self._ew, self._sup, self._via = weights, edge_w, sup, via
        self._wv = memoryview(weights)
        self._ewv = memoryview(edge_w)
        self._supv = memoryview(sup)
        self._viav = memoryview(via)

    def clone(self) -> "ShortcutGraph":
        """An independent copy sharing the weight-independent structure.

        The shortcut *set* (the ``nbr+``/``nbr-`` lists, the slot maps and
        the ordering) is fixed under weight updates, so clones share one
        :class:`ShortcutStructure`; only the four slot arrays — weights,
        supports, witnesses and ``phi(e, G)`` — are copied.  Mutating the
        clone (maintenance, rollback, even edge insertion, which replaces
        the clone's structure) never touches the original, which is what
        the epoch-snapshot serving layer relies on.
        """
        return ShortcutGraph.from_slots(
            self.ordering,
            self._st,
            self._w.copy(),
            self._ew.copy(),
            self._sup.copy(),
            self._via.copy(),
        )

    @property
    def structure(self) -> ShortcutStructure:
        """The weight-independent structure (shared with clones)."""
        return self._st

    @property
    def slot_weights(self) -> np.ndarray:
        """``phi`` of every slot, slots in ``nbr+`` row order: the live
        float64 array the vectorised kernels gather from.  Read only —
        write through :meth:`set_weight`."""
        return self._w

    def _find(self, u: int, v: int) -> Optional[int]:
        """The slot of ``<u, v>``, or ``None`` if there is none.  An id
        outside ``[0, n)`` has none: a negative *u* must not index the
        map of vertex ``n + u``."""
        return self._slot[u].get(v) if 0 <= u < len(self._slot) else None

    def _check_pair(self, u: int, v: int) -> None:
        """Raise :class:`IndexError_` unless both ids lie in ``[0, n)`` —
        the range :meth:`_find` accepts — before a rank or ``nbr-`` list
        is indexed with them."""
        n = len(self._slot)
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError_(f"vertex pair ({u}, {v}) out of range [0, {n})")

    def slot(self, u: int, v: int) -> int:
        """The slot of shortcut ``<u, v>``."""
        s = self._find(u, v)
        if s is None:
            raise IndexError_(f"no shortcut between {u} and {v}")
        return s

    def slot_views(self) -> Tuple[memoryview, memoryview, memoryview, memoryview]:
        """Memoryviews over the four slot arrays — ``phi``, ``phi(e, G)``,
        ``sup`` and ``via`` (``-1`` for the original edge) — for the
        slot-native maintenance loops of :mod:`repro.ch.dch`.  Writes go
        straight into this index's store."""
        return self._wv, self._ewv, self._supv, self._viav

    def upward_weights(self, u: int) -> np.ndarray:
        """``phi(<u, v>)`` for ``v in nbr+(u)``, aligned with
        :meth:`upward`: a view of the store's row, for reading only."""
        return self._w[self._ptr[u] : self._ptr[u + 1]]

    def upward_weight_row(self, u: int) -> List[float]:
        """:meth:`upward_weights` as Python floats: the row the CH query
        loop walks beside ``nbr+(u)``."""
        return self._wv[self._ptr[u] : self._ptr[u + 1]].tolist()

    # ------------------------------------------------------------------
    # Identity / canonical keys
    # ------------------------------------------------------------------
    @staticmethod
    def key(u: int, v: int) -> Shortcut:
        """Canonical dictionary key of the shortcut between *u* and *v*."""
        return (u, v) if u < v else (v, u)

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._slot)

    @property
    def num_shortcuts(self) -> int:
        """Number of shortcuts (the paper's "# of SCs", Table 2)."""
        return len(self._w)

    def rank(self, v: int) -> int:
        """``pi(v)``."""
        return self._rank[v]

    def lower_endpoint(self, u: int, v: int) -> int:
        """The endpoint with the smaller rank (Q priority in DCH)."""
        return u if self._rank[u] < self._rank[v] else v

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    def has_shortcut(self, u: int, v: int) -> bool:
        """True if shortcut ``<u, v>`` exists."""
        return self._find(u, v) is not None

    def shortcuts(self) -> Iterator[Shortcut]:
        """All shortcuts in canonical form, in slot order."""
        return zip(*self._st.canonical())

    def neighbors(self, u: int) -> Iterator[int]:
        """All shortcut neighbors of *u*."""
        return iter(self._slot[u])

    def upward(self, u: int) -> List[int]:
        """``nbr+(u)``: shortcut neighbors ranked above *u* (rank order)."""
        return self._up[u]

    def downward(self, u: int) -> List[int]:
        """``nbr-(u)``: shortcut neighbors ranked below *u* (rank order)."""
        return self._down[u]

    def degree(self, u: int) -> int:
        """Number of shortcuts incident to *u*."""
        return len(self._slot[u])

    def add_structure(
        self, shortcuts: Sequence[Shortcut], edge: Shortcut, edge_weight: float
    ) -> None:
        """Register edge *edge* of ``G`` at *edge_weight* and the new
        *shortcuts* (weight ``inf``, support 0, no witness) — the only
        structural change, Section 7's edge insertion.

        Copy-on-structure: this index gets a new :class:`ShortcutStructure`
        and re-laid-out slot arrays; clones keep the old structure.
        """
        rank = self._rank
        st = self._st
        grown: Dict[int, List[int]] = {}
        for a, b in shortcuts:
            low = self.lower_endpoint(a, b)
            grown.setdefault(low, list(st.up[low])).append(a + b - low)
        up = list(st.up)
        for low, row in grown.items():
            up[low] = sorted(row, key=rank.__getitem__)
        new = ShortcutStructure(rank, up)
        moved = new.slots_of(rank, st.low, st.high)
        new.edge[moved] = st.edge
        m = len(new.low)
        weights = np.full(m, _INF)
        edge_w = np.full(m, _INF)
        sup = np.zeros(m, dtype=np.int64)
        via = np.full(m, -1, dtype=np.int64)
        weights[moved] = self._w
        edge_w[moved] = self._ew
        sup[moved] = self._sup
        via[moved] = self._via
        s = new.slot[edge[0]][edge[1]]
        new.edge[s] = True
        edge_w[s] = edge_weight
        self._adopt(new, weights, edge_w, sup, via)

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------
    def weight(self, u: int, v: int) -> float:
        """``phi(<u, v>)``: the weight of the shortcut.

        Raises
        ------
        IndexError_
            If the shortcut does not exist.
        """
        return self._wv[self.slot(u, v)]

    def set_weight(self, u: int, v: int, weight: float) -> None:
        """Overwrite ``phi(<u, v>)`` (maintenance algorithms only)."""
        self._wv[self.slot(u, v)] = weight

    def edge_weight(self, u: int, v: int) -> float:
        """``phi(e, G)``: the weight of edge ``(u, v)`` in ``G``, or ``inf``.

        The index keeps its own copy of the graph's weights because the
        maintenance algorithms (Algorithms 2-5) read and write
        ``phi(e, G)`` as part of their state.
        """
        s = self._find(u, v)
        return _INF if s is None else self._ewv[s]

    def set_edge_weight(self, u: int, v: int, weight: float) -> None:
        """Overwrite the stored ``phi(e, G)`` of edge ``(u, v)``."""
        if not self.is_graph_edge(u, v):
            raise IndexError_(f"({u}, {v}) is not an edge of G")
        self._ewv[self.slot(u, v)] = weight

    def is_graph_edge(self, u: int, v: int) -> bool:
        """True if ``(u, v)`` is an original edge of ``G``."""
        s = self._find(u, v)
        return s is not None and bool(self._st.edge[s])

    def edge_weights(self) -> Dict[Shortcut, float]:
        """A copy of the stored ``phi(e, G)`` map, keyed canonically.

        This is the public read face of the index's edge-weight store;
        persistence and recovery rebuild the road network from it.
        """
        edges = np.flatnonzero(self._st.edge)
        low, high = self._st.low[edges], self._st.high[edges]
        return dict(
            zip(
                zip(np.minimum(low, high).tolist(), np.maximum(low, high).tolist()),
                self._ew[edges].tolist(),
            )
        )

    def num_graph_edges(self) -> int:
        """Number of original graph edges tracked by the index."""
        return int(np.count_nonzero(self._st.edge))

    def shortcut_records(
        self,
    ) -> Iterator[Tuple[int, int, float, int, Optional[int]]]:
        """All shortcuts as ``(u, v, weight, sup, via)`` records.

        Canonical endpoints (``u < v``), slot order; the public iteration
        face used by :mod:`repro.persist` and the integrity verifier.
        """
        lo, hi = self._st.canonical()
        for u, v, w, sup, via in zip(
            lo, hi, self._w.tolist(), self._sup.tolist(), self._via.tolist()
        ):
            yield u, v, w, sup, (None if via < 0 else via)

    # ------------------------------------------------------------------
    # Support / witness
    # ------------------------------------------------------------------
    def support(self, u: int, v: int) -> int:
        """``sup(<u, v>)``: number of Equation (<>) terms attaining the min."""
        return self._supv[self.slot(u, v)]

    def set_support(self, u: int, v: int, value: int) -> None:
        """Overwrite ``sup(<u, v>)``."""
        self._supv[self.slot(u, v)] = value

    def via(self, u: int, v: int) -> Optional[int]:
        """A witness for ``phi(<u, v>)``: ``None`` for the original edge,
        else a common lower neighbor whose downward pair attains the min."""
        witness = self._viav[self.slot(u, v)]
        return None if witness < 0 else witness

    def set_via(self, u: int, v: int, witness: Optional[int]) -> None:
        """Overwrite the path-unpacking witness of ``<u, v>``."""
        self._viav[self.slot(u, v)] = -1 if witness is None else witness

    # ------------------------------------------------------------------
    # Shortcut-pair enumeration (Section 2)
    # ------------------------------------------------------------------
    def scp_minus(self, u: int, v: int) -> Iterator[int]:
        """Downward shortcut pairs of ``<u, v>`` as their shared vertex *t*.

        Yields each ``t`` with ``pi(t) < min(pi(u), pi(v))`` adjacent to
        both endpoints; the pair itself is ``(<t, u>, <t, v>)``.  An id
        outside ``[0, n)`` raises :class:`IndexError_` at the call.
        """
        self._check_pair(u, v)
        rank = self._rank
        limit = min(rank[u], rank[v])
        down_u, down_v = self._down[u], self._down[v]
        if len(down_u) <= len(down_v):
            smaller, other = down_u, self._slot[v]
        else:
            smaller, other = down_v, self._slot[u]
        return (t for t in smaller if rank[t] < limit and t in other)

    def scp_plus(self, u: int, v: int) -> Iterator[Tuple[int, int, int]]:
        """Upward shortcut pairs of ``<u, v>``.

        Let ``x`` be the lower-ranked endpoint and ``y`` the higher one.
        Yields triples ``(x, w, y)`` meaning the pair
        ``(<x, w>, <w, y>)`` — i.e. ``<x, y>`` together with ``<x, w>``
        forms a downward pair of ``<w, y>``, so a change of ``<x, y>``
        can affect ``<w, y>``.  An id outside ``[0, n)`` raises
        :class:`IndexError_` at the call.
        """
        self._check_pair(u, v)
        rank = self._rank
        x, y = (u, v) if rank[u] < rank[v] else (v, u)
        slot_y = self._slot[y]
        return ((x, w, y) for w in self._up[x] if w != y and w in slot_y)

    # ------------------------------------------------------------------
    # Equation (<>)
    # ------------------------------------------------------------------
    def _equation(
        self, u: int, v: int, counter: Optional[OpCounter]
    ) -> Tuple[float, int, int]:
        """Equation (<>) for ``<u, v>``: ``(weight, support, witness)``,
        the witness ``-1`` for the original edge."""
        slot_u, slot_v = self._slot[u], self._slot[v]
        wv = self._wv
        s = slot_u.get(v)
        edge_w = _INF if s is None else self._ewv[s]
        best = edge_w
        support = 0 if best == _INF else 1
        witness = -1
        # Inlined scp_minus over the smaller nbr- list (rank order, so the
        # first t at or above the limit ends it), with both legs' slots.
        rank = self._rank
        limit = min(rank[u], rank[v])
        if len(self._down[u]) <= len(self._down[v]):
            smaller, smaller_slots, other = self._down[u], self._down_slots[u], slot_v
        else:
            smaller, smaller_slots, other = self._down[v], self._down_slots[v], slot_u
        inspected = 0
        for t, s_t in zip(smaller, smaller_slots):
            if rank[t] >= limit:
                break
            if t in other:
                inspected += 1
                candidate = wv[s_t] + wv[other[t]]
                if candidate < best:
                    best = candidate
                    support = 1
                    witness = t
                elif candidate == best and candidate != _INF:
                    support += 1
        resolve_counter(counter).add("scp_minus_inspect", inspected)
        if best == edge_w:
            # Prefer the original edge as the unpacking witness.
            witness = -1
        return best, support, witness

    def evaluate_equation(
        self, u: int, v: int, counter: Optional[OpCounter] = None
    ) -> _RecomputeResult:
        """Evaluate Equation (<>) for ``<u, v>`` from current weights.

        Returns the minimum value, how many terms attain it, and a witness.
        Does **not** mutate the index; see :meth:`recompute`.
        """
        self._check_pair(u, v)
        weight, support, witness = self._equation(u, v, counter)
        return _RecomputeResult(
            weight=weight, support=support, via=None if witness < 0 else witness
        )

    def recompute(
        self, u: int, v: int, counter: Optional[OpCounter] = None
    ) -> float:
        """Recompute and store weight, support and witness of ``<u, v>``.

        Returns the new weight.  This is line 13 of Algorithm 2 (DCH+).
        """
        return self.recompute_slot(self.slot(u, v), counter)

    def recompute_slot(self, s: int, counter: Optional[OpCounter] = None) -> float:
        """:meth:`recompute` for the shortcut in slot *s*."""
        st = self._st
        weight, support, witness = self._equation(
            st.low_view[s], st.high_view[s], counter
        )
        self._wv[s] = weight
        self._supv[s] = support
        self._viav[s] = witness
        return weight

    # ------------------------------------------------------------------
    # Whole-index views (tests, experiments)
    # ------------------------------------------------------------------
    def weight_snapshot(self) -> Dict[Shortcut, float]:
        """A copy of all shortcut weights, keyed canonically."""
        return dict(zip(self.shortcuts(), self._w.tolist()))

    def support_snapshot(self) -> Dict[Shortcut, int]:
        """A copy of all support counters."""
        return dict(zip(self.shortcuts(), self._sup.tolist()))

    def via_snapshot(self) -> Dict[Shortcut, Optional[int]]:
        """A copy of all path-unpacking witnesses."""
        return {
            key: None if via < 0 else via
            for key, via in zip(self.shortcuts(), self._via.tolist())
        }

    def size_in_bytes(self, incremental: bool = True) -> int:
        """Approximate index size for Fig. 3b.

        Counts 8 bytes per stored scalar: weight + two adjacency entries
        per shortcut, plus ``phi(e, G)`` per edge, plus (when
        *incremental*) ``sup`` and ``via`` per shortcut.
        """
        per_shortcut = 3 + (2 if incremental else 0)
        return 8 * (per_shortcut * self.num_shortcuts + self.num_graph_edges())

    def validate(self) -> None:
        """Check internal consistency; raise :class:`IndexError_` on failure.

        Verifies the structure — every slot's endpoints map back to that
        slot, ``nbr+(u)`` / ``nbr-(u)`` are exactly the rank-sorted
        higher / lower shortcut neighbors of ``u``, every ``nbr+(u)`` is a
        clique, the slot priorities match the ranks and the elimination
        tree's pre-order ranges are its subtrees — then
        Equation (<>) for every shortcut and every support counter.
        """
        self._st.validate(self._rank)
        for u, v in self.shortcuts():
            weight, support, _witness = self._equation(u, v, None)
            s = self._slot[u][v]
            if weight != self._wv[s]:
                raise IndexError_(
                    f"<{u}, {v}>: stored weight {self._wv[s]}, "
                    f"Equation (<>) gives {weight}"
                )
            if self._supv[s] != support:
                raise IndexError_(
                    f"<{u}, {v}>: stored support {self._supv[s]}, "
                    f"actual {support}"
                )

    def __repr__(self) -> str:
        return f"ShortcutGraph(n={self.n}, shortcuts={self.num_shortcuts})"
