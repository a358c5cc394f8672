"""Directed H2H: hierarchical 2-hop labels for digraphs.

The tree decomposition is a property of the *skeleton* (the symmetrized
shortcut structure), so it carries over unchanged; what doubles is the
label: every vertex stores, per ancestor ``a``,

* ``dis_to(u)[depth(a)]  = sd(u -> a)``  and
* ``dis_from(u)[depth(a)] = sd(a -> u)``,

each satisfying a directed Equation (*) over the directed shortcut
weights::

    sd(u -> a) = min over v in nbr+(u) of  phi(u -> v) + sd(v -> a)
    sd(a -> u) = min over v in nbr+(u) of  sd(a -> v) + phi(v -> u)

with the inner ``sd`` values read from whichever of the two vertices is
deeper, via the directed Equation (nabla)::

    sd(v -> a) = dis_to(v)[depth(a)]    if depth(v) > depth(a)
                 dis_from(a)[depth(v)]  if depth(v) < depth(a)

A query is one position-array scan, as in the undirected case
(:func:`repro.h2h.query.h2h_distance` reads either index)::

    sd(s -> t) = min over i in pos(lca) of dis_to(s)[i] + dis_from(t)[i]

The labels are one ``(2, n, width)`` array per kind (``dis[TO]``,
``dis[FROM]``).  The slot weights are the directed CH store's own
``(2, slots)`` array, whose slot order is the tree's upward CSR:
``phi(low -> high)`` in row ``TO`` and ``phi(high -> low)`` in row
``FROM`` for the slot of shortcut ``(low, high)``; DCH± writes them in
place, so the labels never read a stale copy.  Directed IncH2H± is the
undirected level-synchronous engine of :mod:`repro.h2h.inch2h` over
these two matrices, after DCH± (:mod:`repro.ch.dch`) on the ``D = 2``
store: only the label row each changed arc seeds (lines 3-12 of
Algorithms 4-5) is directed here.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.ch.dch import dch_decrease, dch_increase, trace_call
from repro.ch.shortcut_graph import ShortcutGraph
from repro.directed.ch import directed_ch_indexing
from repro.directed.graph import DiRoadNetwork
from repro.errors import IndexError_
from repro.graph.graph import WeightUpdate
from repro.h2h.index import LabelBuffers
from repro.h2h.inch2h import (
    ChangedLabels,
    _decrease_propagate,
    _increase_propagate,
    _Levels,
    _seed_decrease,
    _seed_increase,
)
from repro.h2h.tree import TreeDecomposition
from repro.obs import names
from repro.obs.trace import span
from repro.order.ordering import Ordering
from repro.perf import kernels
from repro.utils.counters import OpCounter, resolve_counter

__all__ = [
    "DirectedH2HIndex",
    "directed_h2h_indexing",
    "directed_fill_labels",
    "directed_inch2h_increase",
    "directed_inch2h_decrease",
]

#: Direction tags for super-shortcut entries.
TO, FROM = 0, 1


class DirectedH2HIndex(LabelBuffers):
    """The directed H2H index: tree + ``(2, n, width)`` distance and
    support arrays (``dis[TO]``, ``dis[FROM]``) over the directed CH
    store ``sc``.  Clones recycle retired label matrices exactly as the
    undirected index does (:class:`repro.h2h.index.LabelBuffers`): the
    level engine logs its flat ``(d * n + u) * width + da`` keys."""

    def __init__(
        self,
        sc: ShortcutGraph,
        tree: TreeDecomposition,
        dis: np.ndarray,
        sup: np.ndarray,
    ) -> None:
        super().__init__(dis, sup)  # dis_to, dis_from = dis
        self.sc = sc
        self.tree = tree

    def slot_weights(self) -> np.ndarray:
        """``sc``'s ``(2, slots)`` weights, the store the level engine
        gathers from."""
        return self.sc.slot_weights

    def clone(self) -> "DirectedH2HIndex":
        """An independent copy sharing the weight-independent tree.

        The arc store's slot arrays are copied; the label matrices are
        this index's recycled spare with its logged cells copied in, or
        full copies, as in :meth:`repro.h2h.index.H2HIndex.clone`.  The
        clone gets a spare and log of its own, never this index's."""
        dis, sup = self._clone_labels()
        return self._lend(DirectedH2HIndex(self.sc.clone(), self.tree, dis, sup))

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.tree.n

    def num_super_shortcuts(self) -> int:
        """Directed super-shortcuts: two per (vertex, ancestor) pair."""
        return 2 * self.tree.num_super_shortcuts()

    # ------------------------------------------------------------------
    def _sd(self, direction: int, u: int, v: int, da: int) -> float:
        """Directed Equation (nabla): ``sd(v -> a)`` for TO, ``sd(a -> v)``
        for FROM, where *v* and ``a = anc(u)[da]`` are ancestors of *u*."""
        dv = int(self.tree.depth[v])
        if dv > da:
            return float(self.dis[direction][v, da])
        if dv < da:
            a = int(self.tree.anc[u][da])
            return float(self.dis[1 - direction][a, dv])
        return 0.0

    def evaluate_entry(
        self, direction: int, u: int, da: int,
        counter: Optional[OpCounter] = None,
    ) -> Tuple[float, int]:
        """Directed Equation (*): ``(value, support)`` of one entry."""
        ops = resolve_counter(counter)
        best = math.inf
        count = 0
        terms = 0
        # Row TO holds phi(u -> v), row FROM phi(v -> u).
        for v, w in zip(self.sc.upward(u), self.sc.upward_weight_row(u, direction)):
            terms += 1
            candidate = w + self._sd(direction, u, v, da)
            if candidate < best:
                best = candidate
                count = 1
            elif candidate == best and not math.isinf(candidate):
                count += 1
        ops.add("star_term", terms)
        return best, count

    def distance_many(
        self, sources, targets, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """``sd(s -> t)`` for every pair ``(sources[i], targets[i])``:
        the batch form of :func:`repro.h2h.query.h2h_distance`, bit-identical
        to it pair by pair (raises ``QueryError`` on an out-of-range id)."""
        return kernels.pos_scan_many(
            self.tree, self.dis[TO], self.dis[FROM], sources, targets, counter
        )

    def validate(self) -> None:
        """Check every entry of both directions against Equation (*)."""
        depth = self.tree.depth
        for u in range(self.n):
            du = int(depth[u])
            for direction in (TO, FROM):
                if self.dis[direction][u, du] != 0.0:
                    raise IndexError_(f"dis[{direction}]({u})[{du}] must be 0")
                for da in range(du):
                    value, support = self.evaluate_entry(direction, u, da)
                    if self.dis[direction][u, da] != value:
                        raise IndexError_(
                            f"dis[{direction}]({u})[{da}] = "
                            f"{self.dis[direction][u, da]}, actual {value}"
                        )
                    if self.sup[direction][u, da] != support:
                        raise IndexError_(
                            f"sup[{direction}]({u})[{da}] = "
                            f"{self.sup[direction][u, da]}, actual {support}"
                        )

    def __repr__(self) -> str:
        return (
            f"DirectedH2HIndex(n={self.n}, "
            f"super_shortcuts={self.num_super_shortcuts()})"
        )


def directed_h2h_indexing(
    graph: DiRoadNetwork,
    ordering: Optional[Ordering] = None,
    counter: Optional[OpCounter] = None,
) -> DirectedH2HIndex:
    """Build the directed H2H index (top-down directed Equation (*),
    vectorized per vertex by :func:`repro.perf.kernels.directed_fill_vertex`)."""
    sc = directed_ch_indexing(graph, ordering, counter)
    # Duck-typed: the tree reads ordering, structure, upward and downward.
    return directed_fill_labels(sc, TreeDecomposition(sc), counter)


def directed_fill_labels(
    sc: ShortcutGraph,
    tree: TreeDecomposition,
    counter: Optional[OpCounter] = None,
) -> DirectedH2HIndex:
    """The label step of :func:`directed_h2h_indexing`: ``dis``/``sup``
    filled top-down over a tree already built.  The tree is weight
    independent, so :meth:`repro.directed.dynamic.DynamicDiH2H.rebuild`
    passes the index's own (as :func:`repro.h2h.indexing.fill_distance_arrays`
    does for the undirected index)."""
    n = tree.n
    height = tree.height
    depth = tree.depth
    dis = np.full((2, n, height), np.inf, dtype=np.float64)
    sup = np.zeros((2, n, height), dtype=np.int32)
    index = DirectedH2HIndex(sc, tree, dis, sup)

    ops = resolve_counter(counter)
    for u in tree.top_down_order:
        kernels.directed_fill_vertex(index, u)
        ops.add("star_term", 2 * len(sc.upward(u)) * int(depth[u]))
    return index


# ----------------------------------------------------------------------
# Incremental maintenance
# ----------------------------------------------------------------------

def _arc_rows(index, changed_arcs, ops, increase: bool) -> Iterator[tuple]:
    """The label row each changed arc feeds, as ``(direction, low, high,
    old, new)``: an arc ``l -> h`` (skeleton lower endpoint ``l``) feeds
    the TO row of ``l`` (candidates ``phi(l -> h) + sd(h -> a)``), an arc
    ``h -> l`` its FROM row (candidates ``sd(a -> h) + phi(h -> l)``).

    Counts one ``anc_scan`` per ancestor of ``l``, but not for an arc
    whose old weight was inf (increase) or a root row (decrease).
    """
    depth = index.tree.depth
    for (tail, head), old_w, new_w in changed_arcs:
        if increase and math.isinf(old_w):
            continue
        low = index.sc.lower_endpoint(tail, head)
        d, high = (TO, head) if tail == low else (FROM, tail)
        du = int(depth[low])
        if du or increase:
            ops.add("anc_scan", du)
        if du:
            yield d, low, high, old_w, new_w


def directed_inch2h_increase(
    index: DirectedH2HIndex,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> ChangedLabels:
    """Directed IncH2H+ : weight increases through both label matrices.

    Returns the changed entries as :class:`~repro.h2h.inch2h.ChangedLabels`
    over the ``(2, n, width)`` store: iterating yields ``((direction, u,
    depth_a), old, new)`` in ascending ``depth(u)``, then direction,
    ``u`` and ``depth_a``.
    """
    with span(names.SPAN_DIRECTED_INCH2H_INCREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        changed_arcs = dch_increase(index.sc, updates, counter)
        levels = _Levels(index)
        _seed_increase(index, levels, _arc_rows(index, changed_arcs, ops, True))
        changed = _increase_propagate(index, levels, ops, None)
        if sp.active:
            trace_call(sp, len(updates), len(changed), ops, ops_before)
    return changed


def directed_inch2h_decrease(
    index: DirectedH2HIndex,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> ChangedLabels:
    """Directed IncH2H- : weight decreases with on-the-fly supports.

    Returns changed entries as :func:`directed_inch2h_increase` does.
    """
    with span(names.SPAN_DIRECTED_INCH2H_DECREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        changed_arcs = dch_decrease(index.sc, updates, counter)
        levels = _Levels(index)
        _seed_decrease(
            index, levels, _arc_rows(index, changed_arcs, ops, False)
        )
        changed = _decrease_propagate(index, levels, ops, None)
        if sp.active:
            trace_call(sp, len(updates), len(changed), ops, ops_before)
    return changed
