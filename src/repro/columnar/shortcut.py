"""Columnar backing store for the CH index (:class:`ShortcutGraph`).

The dict-of-dict representation pays its cost at ``clone()`` time: every
epoch publish copies ``n`` adjacency dicts plus three tuple-keyed maps.
:class:`ColumnarShortcutGraph` flattens the mutable state into four
pages — one float64/int64 array each for shortcut weights, supports,
witnesses and stored graph-edge weights — and installs the lazy views of
:mod:`repro.columnar.views` as ``_adj`` / ``_sup`` / ``_via`` /
``_edge_w``.  Every inherited algorithm (Equation (<>) evaluation,
DCH±, validation, persistence faces) then runs unchanged, while
``clone()`` becomes a page *share* plus O(1) view construction and the
first write to a shared page triggers a single ``ndarray.copy()``
(page-granular copy-on-write).

The weight-independent skeleton (neighbor lists, slot assignment,
canonical keys) lives in one :class:`ShortcutLayout` shared by every
clone and every epoch.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.ch.shortcut_graph import Shortcut, ShortcutGraph, _RecomputeResult
from repro.columnar.views import NO_WITNESS, AdjView, SlotMapView
from repro.errors import IndexError_
from repro.utils.counters import resolve_counter

__all__ = ["ShortcutLayout", "ColumnarShortcutGraph"]

#: Candidate-set size where evaluate_equation's page gathers start to
#: beat its scalar loop (same crossover idea as DCH_KERNEL_MIN_TRIPLES).
_EVAL_GATHER_MIN = 16


class ShortcutLayout:
    """Frozen slot assignment for one shortcut set.

    One slot per canonical shortcut ``(u, v), u < v``; both adjacency
    rows of a shortcut map to the same slot, so a single page write is
    automatically symmetric (the dict backend writes two mirror entries
    instead).  Graph edges get their own slot space.
    """

    __slots__ = (
        "keys",
        "key_slot",
        "row_nbrs",
        "row_slot_of",
        "row_slots",
        "edge_keys",
        "edge_slot",
        "up_slots",
    )

    def __init__(self, adj_rows, up_rows, edge_keys) -> None:
        self.keys: List[Shortcut] = []
        self.key_slot: Dict[Shortcut, int] = {}
        for u, nbrs in enumerate(adj_rows):
            for v in nbrs:
                if u < v:
                    self.key_slot[(u, v)] = len(self.keys)
                    self.keys.append((u, v))
        key_slot = self.key_slot
        self.row_nbrs: List[List[int]] = []
        self.row_slot_of: List[Dict[int, int]] = []
        self.row_slots: List[np.ndarray] = []
        for u, nbrs in enumerate(adj_rows):
            slot_of = {
                v: key_slot[(u, v) if u < v else (v, u)] for v in nbrs
            }
            self.row_nbrs.append(list(nbrs))
            self.row_slot_of.append(slot_of)
            self.row_slots.append(
                np.fromiter(slot_of.values(), dtype=np.int64, count=len(slot_of))
            )
        self.edge_keys: List[Shortcut] = list(edge_keys)
        self.edge_slot: Dict[Shortcut, int] = {
            key: i for i, key in enumerate(self.edge_keys)
        }
        self.up_slots: List[np.ndarray] = [
            np.fromiter(
                (key_slot[(u, v) if u < v else (v, u)] for v in up_rows[u]),
                dtype=np.int64,
                count=len(up_rows[u]),
            )
            for u in range(len(adj_rows))
        ]

    @property
    def num_slots(self) -> int:
        return len(self.keys)


class ColumnarShortcutGraph(ShortcutGraph):
    """A :class:`ShortcutGraph` whose mutable state lives in flat pages.

    Pages: ``_w_arr`` (float64, one slot per canonical shortcut),
    ``_sup_arr`` / ``_via_arr`` (int64, same slots) and ``_edge_arr``
    (float64, one slot per graph edge).  ``_shared`` names the pages
    currently shared with another clone (or mapped read-only from a
    snapshot file); ``_page_for_write`` copies such a page before the
    first mutation lands.
    """

    __slots__ = ("_layout", "_w_arr", "_sup_arr", "_via_arr", "_edge_arr", "_shared")

    _PAGES = ("_w_arr", "_sup_arr", "_via_arr", "_edge_arr")

    def __init__(self, *args, **kwargs) -> None:  # pragma: no cover
        raise TypeError(
            "ColumnarShortcutGraph is built via from_shortcut_graph()"
        )

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def _assemble(
        cls,
        ordering,
        layout: ShortcutLayout,
        up,
        down,
        w_arr: np.ndarray,
        sup_arr: np.ndarray,
        via_arr: np.ndarray,
        edge_arr: np.ndarray,
    ) -> "ColumnarShortcutGraph":
        self = cls.__new__(cls)
        self.ordering = ordering
        self._rank = ordering.rank
        self._up = up
        self._down = down
        self._m_shortcuts = layout.num_slots
        self._layout = layout
        self._w_arr = w_arr
        self._sup_arr = sup_arr
        self._via_arr = via_arr
        self._edge_arr = edge_arr
        self._shared = set()
        self._install_views()
        return self

    def _install_views(self) -> None:
        layout = self._layout
        self._adj = AdjView(
            self, "_w_arr", layout.row_nbrs, layout.row_slot_of, layout.row_slots
        )
        self._sup = SlotMapView(self, "_sup_arr", layout.key_slot, layout.keys, "int")
        self._via = SlotMapView(self, "_via_arr", layout.key_slot, layout.keys, "via")
        self._edge_w = SlotMapView(
            self, "_edge_arr", layout.edge_slot, layout.edge_keys, "float"
        )

    @classmethod
    def from_shortcut_graph(cls, sc: ShortcutGraph) -> "ColumnarShortcutGraph":
        """Convert a dict-backed index; returns *sc* if already columnar."""
        if isinstance(sc, ColumnarShortcutGraph):
            return sc
        layout = ShortcutLayout(sc._adj, sc._up, sc._edge_w)
        m = layout.num_slots
        w_arr = np.empty(m, dtype=np.float64)
        sup_arr = np.zeros(m, dtype=np.int64)
        via_arr = np.full(m, NO_WITNESS, dtype=np.int64)
        for slot, (u, v) in enumerate(layout.keys):
            w_arr[slot] = sc._adj[u][v]
            sup = sc._sup.get((u, v))
            if sup is not None:
                sup_arr[slot] = sup
            via = sc._via.get((u, v))
            if via is not None:
                via_arr[slot] = via
        edge_arr = np.fromiter(
            (sc._edge_w[key] for key in layout.edge_keys),
            dtype=np.float64,
            count=len(layout.edge_keys),
        )
        return cls._assemble(
            sc.ordering, layout, sc._up, sc._down, w_arr, sup_arr, via_arr, edge_arr
        )

    def to_shortcut_graph(self) -> ShortcutGraph:
        """Materialize an equivalent dict-backed :class:`ShortcutGraph`."""
        dup = ShortcutGraph.__new__(ShortcutGraph)
        dup.ordering = self.ordering
        dup._rank = self._rank
        dup._adj = [dict(self._adj[u].items()) for u in range(self.n)]
        dup._up = [list(nbrs) for nbrs in self._up]
        dup._down = [list(nbrs) for nbrs in self._down]
        dup._edge_w = dict(self._edge_w.items())
        dup._sup = dict(self._sup.items())
        dup._via = dict(self._via.items())
        dup._m_shortcuts = self._m_shortcuts
        return dup

    # ------------------------------------------------------------------
    # Copy-on-write pages
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        return "columnar"

    def _page_for_write(self, name: str) -> np.ndarray:
        """The page array *name*, privately owned and writable.

        Copies the page first when it is shared with a clone or backed
        by a read-only mmap; afterwards this instance owns it outright.
        """
        arr = getattr(self, name)
        if name in self._shared or not arr.flags.writeable:
            arr = np.array(arr, copy=True)
            setattr(self, name, arr)
            self._shared.discard(name)
        return arr

    def prepare_write(self) -> None:
        """Take private ownership of every page before direct writes."""
        for name in self._PAGES:
            self._page_for_write(name)

    def clone(self) -> "ColumnarShortcutGraph":
        """A zero-copy clone: pages are shared, not copied.

        Both sides mark every page as shared; whichever mutates a page
        first pays one ``ndarray.copy()`` for it.  The layout, ordering
        and ``nbr±`` lists are weight independent and always shared.
        """
        dup = ColumnarShortcutGraph.__new__(ColumnarShortcutGraph)
        dup.ordering = self.ordering
        dup._rank = self._rank
        dup._up = self._up
        dup._down = self._down
        dup._m_shortcuts = self._m_shortcuts
        dup._layout = self._layout
        for name in self._PAGES:
            setattr(dup, name, getattr(self, name))
        dup._shared = set(self._PAGES)
        self._shared.update(self._PAGES)
        dup._install_views()
        return dup

    # ------------------------------------------------------------------
    # Hot-path scalar accessors
    # ------------------------------------------------------------------
    # The inherited implementations route through ``self._adj[u][v]``,
    # which on this backend builds a RowView per access.  The overrides
    # below hit the pages through the layout directly — same slots,
    # same ``float()`` decode, so bit-identical results — and keep the
    # maintenance inner loops free of per-access view objects.
    def weight(self, u: int, v: int) -> float:
        try:
            return float(
                self._w_arr[self._layout.key_slot[(u, v) if u < v else (v, u)]]
            )
        except KeyError:
            raise IndexError_(f"no shortcut between {u} and {v}") from None

    def set_weight(self, u: int, v: int, weight: float) -> None:
        slot = self._layout.key_slot.get((u, v) if u < v else (v, u))
        if slot is None:
            raise IndexError_(f"no shortcut between {u} and {v}")
        self._page_for_write("_w_arr")[slot] = weight

    def has_shortcut(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._layout.key_slot

    def support(self, u: int, v: int) -> int:
        return int(
            self._sup_arr[self._layout.key_slot[(u, v) if u < v else (v, u)]]
        )

    def set_support(self, u: int, v: int, value: int) -> None:
        slot = self._layout.key_slot[(u, v) if u < v else (v, u)]
        self._page_for_write("_sup_arr")[slot] = value

    def via(self, u: int, v: int):
        raw = int(
            self._via_arr[self._layout.key_slot[(u, v) if u < v else (v, u)]]
        )
        return None if raw == NO_WITNESS else raw

    def set_via(self, u: int, v: int, witness) -> None:
        slot = self._layout.key_slot[(u, v) if u < v else (v, u)]
        self._page_for_write("_via_arr")[slot] = (
            NO_WITNESS if witness is None else witness
        )

    def edge_weight(self, u: int, v: int) -> float:
        slot = self._layout.edge_slot.get((u, v) if u < v else (v, u))
        if slot is None:
            return math.inf
        return float(self._edge_arr[slot])

    def is_graph_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._layout.edge_slot

    # ------------------------------------------------------------------
    # Vectorized faces
    # ------------------------------------------------------------------
    def upward_weights(self, u: int) -> np.ndarray:
        """``phi(<u, v>)`` for ``v in nbr+(u)``, as one gather."""
        return self._w_arr[self._layout.up_slots[u]]

    def upward_weight_row(self, u: int) -> List[float]:
        """The same gather, converted to Python floats in one call."""
        return self._w_arr[self._layout.up_slots[u]].tolist()

    def evaluate_equation(self, u, v, counter=None):
        """Equation (<>) with direct page access instead of per-access
        row views; wide candidate sets drop into two page gathers plus
        one vectorized add/min.

        Bit-identical to the scalar base implementation either way:
        each candidate is the same single float64 addition
        ``phi(<t, u>) + phi(<t, v>)``, the minimum is exact, the support
        counts exact ``==`` ties, and the vectorized witness — the first
        *t* in inspection order attaining a value strictly below the
        stored-edge weight — is exactly the last strict improvement of
        the scalar running minimum (nothing before the first occurrence
        of the overall minimum can equal it).
        """
        ops = resolve_counter(counter)
        layout = self._layout
        slot_of_u = layout.row_slot_of[u]
        slot_of_v = layout.row_slot_of[v]
        edge_slot = layout.edge_slot.get((u, v) if u < v else (v, u))
        edge_w = math.inf if edge_slot is None else float(self._edge_arr[edge_slot])
        rank = self._rank
        limit = min(rank[u], rank[v])
        down_u, down_v = self._down[u], self._down[v]
        if len(down_u) <= len(down_v):
            smaller, other = down_u, slot_of_v
        else:
            smaller, other = down_v, slot_of_u
        ts = [t for t in smaller if rank[t] < limit and t in other]
        ops.add("scp_minus_inspect", len(ts))
        w = self._w_arr
        if len(ts) < _EVAL_GATHER_MIN:
            # Scalar loop over the few candidates (the common case);
            # numpy gather setup would dominate at this size.
            best = edge_w
            support = 0 if math.isinf(best) else 1
            witness = None
            for t in ts:
                candidate = float(w[slot_of_u[t]]) + float(w[slot_of_v[t]])
                if candidate < best:
                    best = candidate
                    support = 1
                    witness = t
                elif candidate == best and not math.isinf(candidate):
                    support += 1
            if best == edge_w:
                witness = None
            return _RecomputeResult(weight=best, support=support, via=witness)
        cand = w[np.fromiter((slot_of_u[t] for t in ts), np.int64, len(ts))]
        cand = cand + w[np.fromiter((slot_of_v[t] for t in ts), np.int64, len(ts))]
        low = cand.min()
        if low < edge_w:
            hits = cand == low
            return _RecomputeResult(
                weight=float(low),
                support=int(hits.sum()),
                via=ts[int(np.argmax(hits))],
            )
        best = edge_w
        support = 0 if math.isinf(best) else 1
        if low == best and not math.isinf(best):
            support += int((cand == low).sum())
        return _RecomputeResult(weight=best, support=support, via=None)

    def pair_weight_arrays(self, triples, base: float):
        """The :func:`repro.perf.kernels.relax_arrays` gathers off the
        weight page: ``(base + phi(<x, w>), phi(<w, y>))`` per triple."""
        arc = self._layout.key_slot
        count = len(triples)
        legs = self._w_arr[
            np.fromiter(
                (arc[(x, w) if x < w else (w, x)] for x, w, _y in triples),
                np.int64,
                count,
            )
        ]
        currents = self._w_arr[
            np.fromiter(
                (arc[(w, y) if w < y else (y, w)] for _x, w, y in triples),
                np.int64,
                count,
            )
        ]
        legs += base
        return legs, currents

    def __repr__(self) -> str:
        return (
            f"ColumnarShortcutGraph(n={self.n}, "
            f"shortcuts={self._m_shortcuts})"
        )
