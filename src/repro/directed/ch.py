"""Directed contraction hierarchy.

The weight-independent backbone is unchanged: the contraction order and
the shortcut *set* come from the symmetrized graph, exactly as in the
undirected case (Section 2's variant).  What changes is that every
shortcut ``{u, v}`` now carries **two** weights — the shortest valley
path ``u -> v`` and ``v -> u`` — each satisfying its own directed
Equation (<>)::

    phi(u -> v) = min( phi_G(u -> v),
                       min over t in scp-  of  phi(u -> t) + phi(t -> v) )

Queries run a forward upward search from ``s`` over out-weights and a
backward upward search from ``t`` over in-weights; the answer is the
best meeting point, as in the classic directed CH [26].  The undirected
query functions of :mod:`repro.ch.query` serve this store as they are.

One slot store for both directions
----------------------------------
The skeleton is laid out once in the undirected index's
:class:`~repro.ch.shortcut_graph.ShortcutStructure`, shared by every
clone together with ``(2, slots)`` arc flags.  Shortcut ``<low, high>``
in slot ``s`` owns column ``s`` of three ``(2, slots)`` arrays — the
weights ``phi``, the arc weights ``phi_G`` (``inf`` off G) and the
supports — row ``TO`` for ``low -> high``, row ``FROM`` for
``high -> low``; clones copy only these.  Flattened, direction ``d`` of
slot ``s`` is the *arc id* ``d * slots + s`` that directed DCH±
(:mod:`repro.directed.dch`) queues.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.ch.indexing import edge_columns, eliminated_structure, held_slots
from repro.ch.shortcut_graph import ShortcutStructure
from repro.directed.graph import DiRoadNetwork
from repro.errors import IndexError_
from repro.order.ordering import Ordering
from repro.perf import kernels
from repro.utils.counters import OpCounter, resolve_counter

__all__ = [
    "DirectedShortcutGraph",
    "directed_ch_indexing",
    "weigh_directed_structure",
]

#: A directed shortcut: the ordered pair (tail, head).
Arc = Tuple[int, int]

#: Rows of the ``(2, slots)`` arrays: ``low -> high`` and ``high -> low``.
TO, FROM = 0, 1

_INF = math.inf


class DirectedShortcutGraph:
    """The directed CH index: two weights and supports per skeleton slot."""

    __slots__ = ("ordering", "_rank", "_st", "_arc", "_phi", "_phi_g", "_count",
                 "_phiv", "_phigv", "_countv")

    def __init__(
        self,
        ordering: Ordering,
        st: ShortcutStructure,
        arc: np.ndarray,
        phi: np.ndarray,
        phi_g: np.ndarray,
        count: np.ndarray,
    ) -> None:
        """Wrap structure *st* (over *ordering*), its ``(2, slots)`` arc
        flags *arc* and the three ``(2, slots)`` weight-dependent arrays
        as they are, without copying."""
        self.ordering = ordering
        self._rank = ordering.rank
        self._arc = arc
        self._adopt(st, phi, phi_g, count)

    def _adopt(self, st, phi, phi_g, count) -> None:
        """Install structure *st* and the three weight-dependent arrays."""
        self._st = st
        self._phi, self._phi_g, self._count = phi, phi_g, count
        self._phiv = memoryview(phi.reshape(-1))
        self._phigv = memoryview(phi_g.reshape(-1))
        self._countv = memoryview(count.reshape(-1))

    def clone(self) -> "DirectedShortcutGraph":
        """An independent copy sharing the structure and the arc flags;
        only ``phi``, ``phi_G`` and the supports are copied."""
        return DirectedShortcutGraph(
            self.ordering,
            self._st,
            self._arc,
            self._phi.copy(),
            self._phi_g.copy(),
            self._count.copy(),
        )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._st.slot)

    @property
    def num_shortcuts(self) -> int:
        """Number of skeleton shortcuts (each carries two weights)."""
        return len(self._st.low)

    @property
    def structure(self) -> ShortcutStructure:
        """The weight-independent skeleton (shared with clones)."""
        return self._st

    @property
    def slot_weights(self) -> np.ndarray:
        """The live ``(2, slots)`` weights: row ``TO`` ``phi(low -> high)``,
        row ``FROM`` ``phi(high -> low)``.  Read only."""
        return self._phi

    def slot_views(self) -> Tuple[memoryview, memoryview, memoryview]:
        """Flat memoryviews over ``phi``, ``phi_G`` and the supports,
        indexed by arc id, for the slot-native loops of
        :mod:`repro.directed.dch`.  Writes go straight into this index."""
        return self._phiv, self._phigv, self._countv

    def arc_id(self, u: int, v: int) -> int:
        """The arc id ``d * slots + s`` of the directed shortcut ``u -> v``."""
        s = self._find(u, v)
        if s is None:
            raise IndexError_(f"no shortcut between {u} and {v}")
        return s if self._rank[u] < self._rank[v] else s + len(self._st.low)

    def _find(self, u: int, v: int) -> Optional[int]:
        """The skeleton slot of ``{u, v}``, or ``None`` if there is none.
        An id outside ``[0, n)`` has none: a negative *u* must not index
        the map of vertex ``n + u``."""
        slot = self._st.slot
        return slot[u].get(v) if 0 <= u < len(slot) else None

    def has_shortcut(self, u: int, v: int) -> bool:
        """True if the skeleton shortcut between *u* and *v* exists."""
        return self._find(u, v) is not None

    def weight(self, u: int, v: int) -> float:
        """``phi(u -> v)``."""
        return self._phiv[self.arc_id(u, v)]

    def set_weight(self, u: int, v: int, weight: float) -> None:
        """Overwrite ``phi(u -> v)`` (maintenance only)."""
        self._phiv[self.arc_id(u, v)] = weight

    def arc_weight(self, u: int, v: int) -> float:
        """``phi_G(u -> v)``: the arc's weight in G, or inf."""
        try:
            return self._phigv[self.arc_id(u, v)]
        except IndexError_:
            return _INF

    def set_arc_weight(self, u: int, v: int, weight: float) -> None:
        """Overwrite the stored arc weight of ``u -> v``."""
        if not self.is_arc(u, v):
            raise IndexError_(f"({u} -> {v}) is not an arc of G")
        self._phigv[self.arc_id(u, v)] = weight

    def is_arc(self, u: int, v: int) -> bool:
        """True if ``u -> v`` is an original arc of G."""
        try:
            return bool(self._arc.reshape(-1)[self.arc_id(u, v)])
        except IndexError_:
            return False

    def support(self, u: int, v: int) -> int:
        """Number of directed Equation (<>) terms attaining ``phi(u -> v)``."""
        return self._countv[self.arc_id(u, v)]

    def set_support(self, u: int, v: int, value: int) -> None:
        """Overwrite the support of the directed shortcut ``u -> v``."""
        self._countv[self.arc_id(u, v)] = value

    def upward(self, u: int) -> List[int]:
        """Skeleton upward neighbors of *u*."""
        return self._st.up[u]

    def downward(self, u: int) -> List[int]:
        """Skeleton downward neighbors of *u*."""
        return self._st.down[u]

    def upward_weight_row(self, u: int, d: int) -> List[float]:
        """Row *d* of ``nbr+(u)``'s slots as Python floats, aligned with
        :meth:`upward`: ``phi(u -> v)`` for ``TO``, ``phi(v -> u)`` for
        ``FROM``."""
        ptr, off = self._st.ptr, d * len(self._st.low)
        return self._phiv[off + ptr[u] : off + ptr[u + 1]].tolist()

    def lower_endpoint(self, u: int, v: int) -> int:
        """The skeleton endpoint with the smaller rank."""
        return u if self._rank[u] < self._rank[v] else v

    def shortcut_arcs(self) -> Iterator[Arc]:
        """All directed shortcuts (two per skeleton shortcut), by arc id."""
        low, high = self._st.low.tolist(), self._st.high.tolist()
        return chain(zip(low, high), zip(high, low))

    # ------------------------------------------------------------------
    def _equation(self, k: int, counter: Optional[OpCounter]) -> Tuple[float, int]:
        """Directed Equation (<>) for arc id *k*: ``(value, support)``."""
        st, rank = self._st, self._rank
        m = len(st.low)
        d, s = divmod(k, m)
        x, y = st.low_view[s], st.high_view[s]
        u, v = (x, y) if d == TO else (y, x)
        wv = self._phiv
        best = self._phigv[k]
        support = 0 if best == _INF else 1
        # Terms phi(u -> t) + phi(t -> v) over the common lower neighbors t:
        # u -> t is row FROM of <t, u>, t -> v row TO of <t, v>.  Walk the
        # smaller nbr- list (rank order, so the first t at or above x's
        # rank ends it) beside its slots.
        if len(st.down[u]) <= len(st.down[v]):
            smaller, smaller_slots, other = st.down[u], st.down_slots[u], st.slot[v]
            own, far = m, 0
        else:
            smaller, smaller_slots, other = st.down[v], st.down_slots[v], st.slot[u]
            own, far = 0, m
        limit = rank[x]
        inspected = 0
        for t, s_t in zip(smaller, smaller_slots):
            if rank[t] >= limit:
                break
            if t in other:
                inspected += 1
                candidate = wv[own + s_t] + wv[far + other[t]]
                if candidate < best:
                    best = candidate
                    support = 1
                elif candidate == best and candidate != _INF:
                    support += 1
        resolve_counter(counter).add("scp_minus_inspect", inspected)
        return best, support

    def evaluate_arc(
        self, u: int, v: int, counter: Optional[OpCounter] = None
    ) -> Tuple[float, int]:
        """Directed Equation (<>) for ``u -> v``: ``(value, support)``."""
        return self._equation(self.arc_id(u, v), counter)

    def recompute_arc(
        self, u: int, v: int, counter: Optional[OpCounter] = None
    ) -> float:
        """Recompute and store ``phi(u -> v)`` and its support."""
        return self.recompute_id(self.arc_id(u, v), counter)

    def recompute_id(self, k: int, counter: Optional[OpCounter] = None) -> float:
        """:meth:`recompute_arc` for arc id *k*."""
        value, support = self._equation(k, counter)
        self._phiv[k] = value
        self._countv[k] = support
        return value

    def _check_arcs(self) -> None:
        """Every arc's weight and support against the directed
        Equation (<>)."""
        for k, (u, v) in enumerate(self.shortcut_arcs()):
            value, support = self._equation(k, None)
            if value != self._phiv[k]:
                raise IndexError_(
                    f"arc {u}->{v}: stored {self._phiv[k]}, equation {value}"
                )
            if self._countv[k] != support:
                raise IndexError_(
                    f"arc {u}->{v}: stored support {self._countv[k]}, "
                    f"actual {support}"
                )

    def validate(self) -> None:
        """Check the shared structure, that only arcs of G carry a finite
        ``phi_G``, and both directed weights and supports of every
        shortcut."""
        self._st.validate(self._rank)
        stray = np.flatnonzero(~self._arc & (self._phi_g != _INF))
        if len(stray):
            raise IndexError_(f"arc id {int(stray[0])} is not an arc of G")
        self._check_arcs()

    def __repr__(self) -> str:
        return f"DirectedShortcutGraph(n={self.n}, shortcuts={self.num_shortcuts})"


def directed_ch_indexing(
    graph: DiRoadNetwork,
    ordering: Optional[Ordering] = None,
    counter: Optional[OpCounter] = None,
) -> DirectedShortcutGraph:
    """Build the directed CH index (Algorithm 1, one relax per direction).

    The ordering defaults to the minimum degree heuristic on the
    symmetrized graph; the skeleton therefore matches the undirected
    index of the same network.  The weights come from
    :func:`weigh_directed_structure` on that skeleton.
    """
    skeleton = graph.symmetrized()
    u, v, _ = edge_columns(skeleton.edges())
    ordering, st = eliminated_structure(skeleton, ordering, u, v)
    return weigh_directed_structure(ordering, st, graph, counter)


def weigh_directed_structure(
    ordering: Ordering,
    st: ShortcutStructure,
    graph: DiRoadNetwork,
    counter: Optional[OpCounter] = None,
) -> DirectedShortcutGraph:
    """The weighing step of :func:`directed_ch_indexing` on a skeleton
    already built, which must hold every arc's edge.

    The level pass of :mod:`repro.perf.kernels` runs over the
    ``(2, slots)`` store: triangle ``(u; v, w)`` offers ``TO(v, w)`` the
    term ``FROM(u, v) + TO(u, w)`` (``v -> u -> w``) and ``FROM(v, w)``
    the term ``FROM(u, w) + TO(u, v)`` (``w -> u -> v``).  The skeleton
    is weight independent, so :meth:`repro.directed.dynamic.DynamicDiCH.rebuild`
    passes the index's own and skips the elimination; the result, op
    counts included, equals a fresh :func:`directed_ch_indexing` in
    *ordering*.
    """
    rank = ordering.rank
    tail, head, w = edge_columns(graph.arcs())
    slots = len(st.low)
    rank_arr = np.asarray(rank, dtype=np.int64)
    ids = held_slots(st, rank, tail, head) + slots * (rank_arr[tail] > rank_arr[head])
    arc = np.zeros((2, slots), dtype=bool)
    arc.reshape(-1)[ids] = True
    phi_g = np.full((2, slots), _INF)
    phi_g.reshape(-1)[ids] = w
    st.edge[:] = arc.any(axis=0)
    phi, terms = kernels.level_weights(st, phi_g)
    count, _ = kernels.level_supports(st, rank, phi_g, phi, witnesses=False)
    if terms:
        resolve_counter(counter).add("contract_pair", terms)
    return DirectedShortcutGraph(ordering, st, arc, phi, phi_g, count)
