"""Columnar backing stores for the directed CH / H2H indexes.

Mirrors :mod:`repro.columnar.shortcut` / :mod:`repro.columnar.h2h` for
the directed variants.  The differences follow the representation:

* a directed shortcut carries one weight **per ordered arc**, so the
  weight/support pages have one slot per adjacency entry (``2m``)
  rather than one per canonical pair;
* the directed H2H label is a ``(TO, FROM)`` pair of matrices per kind,
  so the index carries four matrix pages.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, List, Tuple

import numpy as np

from repro.columnar.h2h import csrify_tree
from repro.columnar.views import AdjView, SlotMapView
from repro.directed.ch import Arc, DirectedShortcutGraph
from repro.directed.h2h import FROM, TO, DirectedH2HIndex
from repro.errors import IndexError_

__all__ = ["ColumnarDirectedShortcutGraph", "ColumnarDirectedH2HIndex"]


class DirectedLayout:
    """Frozen slot assignment for one directed shortcut skeleton."""

    __slots__ = (
        "arcs",
        "arc_slot",
        "row_nbrs",
        "row_slot_of",
        "row_slots",
        "garc_keys",
        "garc_slot",
        "up_out_slots",
        "up_in_slots",
    )

    def __init__(self, weight_rows, up_rows, graph_arcs) -> None:
        self.arcs: List[Arc] = []
        self.arc_slot: Dict[Arc, int] = {}
        self.row_nbrs: List[List[int]] = []
        self.row_slot_of: List[Dict[int, int]] = []
        self.row_slots: List[np.ndarray] = []
        for u, nbrs in enumerate(weight_rows):
            slot_of = {}
            for v in nbrs:
                slot = len(self.arcs)
                self.arc_slot[(u, v)] = slot
                self.arcs.append((u, v))
                slot_of[v] = slot
            self.row_nbrs.append(list(nbrs))
            self.row_slot_of.append(slot_of)
            self.row_slots.append(
                np.fromiter(slot_of.values(), dtype=np.int64, count=len(slot_of))
            )
        self.garc_keys: List[Arc] = list(graph_arcs)
        self.garc_slot: Dict[Arc, int] = {
            key: i for i, key in enumerate(self.garc_keys)
        }
        # Slots of u -> v and v -> u for v in nbr+(u), in upward() order.
        slot_of = self.row_slot_of
        self.up_out_slots: List[np.ndarray] = [
            np.array([slot_of[u][v] for v in up], dtype=np.int64)
            for u, up in enumerate(up_rows)
        ]
        self.up_in_slots: List[np.ndarray] = [
            np.array([slot_of[v][u] for v in up], dtype=np.int64)
            for u, up in enumerate(up_rows)
        ]

    @property
    def num_slots(self) -> int:
        return len(self.arcs)


class ColumnarDirectedShortcutGraph(DirectedShortcutGraph):
    """A :class:`DirectedShortcutGraph` whose state lives in flat pages.

    Pages: ``_w_arr`` / ``_sup_arr`` (one slot per directed shortcut
    arc) and ``_arc_arr`` (one slot per original graph arc).
    """

    __slots__ = ("_layout", "_w_arr", "_sup_arr", "_arc_arr", "_shared")

    _PAGES = ("_w_arr", "_sup_arr", "_arc_arr")

    def __init__(self, *args, **kwargs) -> None:  # pragma: no cover
        raise TypeError(
            "ColumnarDirectedShortcutGraph is built via from_directed()"
        )

    def _install_views(self) -> None:
        layout = self._layout
        self._w = AdjView(
            self, "_w_arr", layout.row_nbrs, layout.row_slot_of, layout.row_slots
        )
        self._sup = SlotMapView(
            self, "_sup_arr", layout.arc_slot, layout.arcs, "int"
        )
        self._arc_w = SlotMapView(
            self, "_arc_arr", layout.garc_slot, layout.garc_keys, "float"
        )

    @classmethod
    def from_directed(
        cls, sc: DirectedShortcutGraph
    ) -> "ColumnarDirectedShortcutGraph":
        """Convert a dict-backed index; returns *sc* if already columnar."""
        if isinstance(sc, ColumnarDirectedShortcutGraph):
            return sc
        layout = DirectedLayout(sc._w, sc._up, sc._arc_w)
        w_arr = np.empty(layout.num_slots, dtype=np.float64)
        sup_arr = np.zeros(layout.num_slots, dtype=np.int64)
        for slot, (u, v) in enumerate(layout.arcs):
            w_arr[slot] = sc._w[u][v]
            sup = sc._sup.get((u, v))
            if sup is not None:
                sup_arr[slot] = sup
        arc_arr = np.fromiter(
            (sc._arc_w[key] for key in layout.garc_keys),
            dtype=np.float64,
            count=len(layout.garc_keys),
        )
        self = cls.__new__(cls)
        self.ordering = sc.ordering
        self._rank = sc._rank
        self._up = sc._up
        self._down = sc._down
        self._layout = layout
        self._w_arr = w_arr
        self._sup_arr = sup_arr
        self._arc_arr = arc_arr
        self._shared = set()
        self._install_views()
        return self

    def to_directed(self) -> DirectedShortcutGraph:
        """Materialize an equivalent dict-backed index."""
        dup = DirectedShortcutGraph.__new__(DirectedShortcutGraph)
        dup.ordering = self.ordering
        dup._rank = self._rank
        dup._w = [dict(self._w[u].items()) for u in range(self.n)]
        dup._up = [list(nbrs) for nbrs in self._up]
        dup._down = [list(nbrs) for nbrs in self._down]
        dup._arc_w = dict(self._arc_w.items())
        dup._sup = dict(self._sup.items())
        return dup

    # ------------------------------------------------------------------
    # Hot-path scalar accessors: hit the pages through the layout
    # directly (same slots, same float()/int() decode as the views) so
    # maintenance inner loops skip per-access RowView construction.
    # ------------------------------------------------------------------
    def has_shortcut(self, u: int, v: int) -> bool:
        return (u, v) in self._layout.arc_slot

    def weight(self, u: int, v: int) -> float:
        try:
            return float(self._w_arr[self._layout.arc_slot[(u, v)]])
        except KeyError:
            raise IndexError_(f"no shortcut between {u} and {v}") from None

    def set_weight(self, u: int, v: int, weight: float) -> None:
        slot = self._layout.arc_slot.get((u, v))
        if slot is None:
            raise IndexError_(f"no shortcut between {u} and {v}")
        self._page_for_write("_w_arr")[slot] = weight

    def arc_weight(self, u: int, v: int) -> float:
        slot = self._layout.garc_slot.get((u, v))
        if slot is None:
            return math.inf
        return float(self._arc_arr[slot])

    def set_arc_weight(self, u: int, v: int, weight: float) -> None:
        slot = self._layout.garc_slot.get((u, v))
        if slot is None:
            raise IndexError_(f"({u} -> {v}) is not an arc of G")
        self._page_for_write("_arc_arr")[slot] = weight

    def is_arc(self, u: int, v: int) -> bool:
        return (u, v) in self._layout.garc_slot

    def support(self, u: int, v: int) -> int:
        return int(self._sup_arr[self._layout.arc_slot[(u, v)]])

    def upward_out_weights(self, u: int) -> List[float]:
        return self._w_arr[self._layout.up_out_slots[u]].tolist()

    def upward_in_weights(self, u: int) -> List[float]:
        return self._w_arr[self._layout.up_in_slots[u]].tolist()

    def set_support(self, u: int, v: int, value: int) -> None:
        self._page_for_write("_sup_arr")[self._layout.arc_slot[(u, v)]] = value

    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        return "columnar"

    def _page_for_write(self, name: str) -> np.ndarray:
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

    def clone(self) -> "ColumnarDirectedShortcutGraph":
        """A zero-copy clone: pages are shared, not copied."""
        dup = ColumnarDirectedShortcutGraph.__new__(ColumnarDirectedShortcutGraph)
        dup.ordering = self.ordering
        dup._rank = self._rank
        dup._up = self._up
        dup._down = self._down
        dup._layout = self._layout
        for name in self._PAGES:
            setattr(dup, name, getattr(self, name))
        dup._shared = set(self._PAGES)
        self._shared.update(self._PAGES)
        dup._install_views()
        return dup

    def __repr__(self) -> str:
        return (
            f"ColumnarDirectedShortcutGraph(n={self.n}, "
            f"shortcuts={self.num_shortcuts})"
        )


class ColumnarDirectedH2HIndex(DirectedH2HIndex):
    """A :class:`DirectedH2HIndex` with shared-page clones.

    Four matrix pages — ``dis[TO]``, ``dis[FROM]``, ``sup[TO]``,
    ``sup[FROM]`` — tracked with one shared flag: directed maintenance
    touches both directions of both kinds in every non-trivial batch,
    so per-page granularity would only add bookkeeping.
    """

    def __init__(self, sc, tree, dis, sup) -> None:
        super().__init__(sc, tree, dis, sup)
        self._shared = False

    @classmethod
    def from_index(cls, index: DirectedH2HIndex) -> "ColumnarDirectedH2HIndex":
        """Convert a dict-backed index; returns *index* if already columnar."""
        if isinstance(index, ColumnarDirectedH2HIndex):
            return index
        sc = ColumnarDirectedShortcutGraph.from_directed(index.sc)
        tree = csrify_tree(index.tree)
        tree.sc = sc
        return cls(sc, tree, index.dis, index.sup)

    def to_index(self) -> DirectedH2HIndex:
        """Materialize an independent dict-backed :class:`DirectedH2HIndex`
        (the escape hatch for structure-changing operations)."""
        sc = self.sc.to_directed()
        tree = copy.copy(self.tree)
        tree.sc = sc
        dis = (
            np.array(self.dis[TO], copy=True),
            np.array(self.dis[FROM], copy=True),
        )
        sup = (
            np.array(self.sup[TO], copy=True),
            np.array(self.sup[FROM], copy=True),
        )
        return DirectedH2HIndex(sc, tree, dis, sup)

    @property
    def backend(self) -> str:
        return "columnar"

    def prepare_write(self) -> None:
        """Take private ownership of the four matrix pages."""
        if self._shared or not self.dis[TO].flags.writeable:
            self.dis = (
                np.array(self.dis[TO], copy=True),
                np.array(self.dis[FROM], copy=True),
            )
            self.sup = (
                np.array(self.sup[TO], copy=True),
                np.array(self.sup[FROM], copy=True),
            )
            self._shared = False
        self.sc.prepare_write()

    def clone(self) -> "ColumnarDirectedH2HIndex":
        """A zero-copy clone: matrices and shortcut pages are shared."""
        dup = ColumnarDirectedH2HIndex(self.sc.clone(), self.tree, self.dis, self.sup)
        dup._shared = True
        self._shared = True
        return dup

    def __repr__(self) -> str:
        return (
            f"ColumnarDirectedH2HIndex(n={self.n}, "
            f"super_shortcuts={self.num_super_shortcuts()})"
        )
