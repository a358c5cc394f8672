"""Dynamic oracle facades for directed networks.

Mirrors :mod:`repro.core.dynamic` for the directed extension: build
once, then interleave asymmetric distance queries with per-arc weight
updates; mixed batches are split and dispatched to directed DCH /
directed IncH2H.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.directed.ch import (
    directed_ch_distance,
    directed_ch_indexing,
    weigh_directed_structure,
)
from repro.directed.dch import (
    ArcUpdate,
    directed_dch_decrease,
    directed_dch_increase,
)
from repro.directed.graph import DiRoadNetwork
from repro.directed.h2h import (
    directed_fill_labels,
    directed_h2h_distance,
    directed_h2h_indexing,
    directed_inch2h_decrease,
    directed_inch2h_increase,
)
from repro.errors import UpdateError
from repro.order.ordering import Ordering
from repro.perf.coalesce import coalesce_updates
from repro.utils.counters import OpCounter

__all__ = ["DynamicDiCH", "DynamicDiH2H", "DirectedUpdateReport"]


@dataclass
class DirectedUpdateReport:
    """What one directed :meth:`apply` call did."""

    increases: int = 0
    decreases: int = 0
    changed_shortcut_arcs: List = field(default_factory=list)
    changed_super_shortcuts: List = field(default_factory=list)
    ops: dict = field(default_factory=dict)
    superseded: int = 0
    dropped: int = 0


def _reweigh(graph: DiRoadNetwork, sc, counter: OpCounter):
    """Directed CHIndexing of *graph* on the order and skeleton of *sc*,
    which weight updates never change (:func:`weigh_directed_structure`)."""
    return weigh_directed_structure(sc.ordering, sc.structure, graph, counter)


def _split(
    graph: DiRoadNetwork, updates: Sequence[ArcUpdate]
) -> Tuple[List[ArcUpdate], List[ArcUpdate]]:
    increases: List[ArcUpdate] = []
    decreases: List[ArcUpdate] = []
    seen = set()
    for (u, v), w in updates:
        if (u, v) in seen:
            raise UpdateError(f"arc ({u} -> {v}) appears twice in one batch")
        seen.add((u, v))
        old = graph.weight(u, v)
        if w > old:
            increases.append(((u, v), w))
        elif w < old:
            decreases.append(((u, v), w))
    return increases, decreases


class _DirectedOracle:
    """What the two directed facades share: the network, the counter,
    cloning and :meth:`apply`, which splits a batch and hands each half to
    the subclass's :meth:`_maintain`, collecting the changes in the report
    list named :attr:`_changed`."""

    _changed = ""

    def clone(self):
        """An independent copy: same answers, disjoint mutable state."""
        dup = type(self).__new__(type(self))
        dup._graph = self._graph.copy()
        dup.counter = OpCounter()
        dup.index = self.index.clone()
        return dup

    @property
    def graph(self) -> DiRoadNetwork:
        """The directed network in its current state."""
        return self._graph

    def apply(
        self, updates: Sequence[ArcUpdate], *, coalesce: bool = False
    ) -> DirectedUpdateReport:
        """Apply a (possibly mixed) batch of arc-weight updates.

        With *coalesce*, the raw stream is first merged per ordered arc
        (last write wins) so each direction of a road coalesces
        independently; final state matches per-update application.
        """
        superseded = dropped = 0
        if coalesce:
            batch = coalesce_updates(updates, self._graph.weight, directed=True)
            updates = batch.updates
            superseded, dropped = batch.superseded, batch.dropped
        increases, decreases = _split(self._graph, updates)
        ops = OpCounter()
        report = DirectedUpdateReport(
            len(increases), len(decreases), superseded=superseded, dropped=dropped
        )
        changed = getattr(report, self._changed)
        for increase, batch in ((True, increases), (False, decreases)):
            if batch:
                for (u, v), w in batch:
                    self._graph.set_weight(u, v, w)
                changed += self._maintain(increase, batch, ops)
        report.ops = ops.as_dict()
        self.counter.merge(ops)
        return report


class DynamicDiCH(_DirectedOracle):
    """A directed contraction hierarchy under live arc-weight updates.

    Example
    -------
    >>> g = DiRoadNetwork(3)
    >>> g.add_arc(0, 1, 2.0); g.add_arc(1, 2, 2.0); g.add_arc(2, 0, 9.0)
    >>> oracle = DynamicDiCH(g)
    >>> oracle.distance(0, 2)
    4.0
    """

    _changed = "changed_shortcut_arcs"

    def __init__(
        self, graph: DiRoadNetwork, ordering: Optional[Ordering] = None
    ) -> None:
        self._graph = graph
        self.counter = OpCounter()
        self.index = directed_ch_indexing(graph, ordering, self.counter)

    def distance(self, s: int, t: int) -> float:
        """``sd(s -> t)`` under current weights."""
        return directed_ch_distance(self.index, s, t, self.counter)

    def _maintain(self, increase: bool, batch, ops) -> List:
        run = directed_dch_increase if increase else directed_dch_decrease
        return run(self.index, batch, ops)

    def rebuild(self) -> None:
        """Recompute the index from the current network.

        The order and the skeleton are weight independent, so the
        index's own are reused: only the weights and supports are
        recomputed, equal to a fresh :func:`directed_ch_indexing` in the
        same order."""
        self.index = _reweigh(self._graph, self.index, self.counter)


class DynamicDiH2H(_DirectedOracle):
    """A directed H2H oracle under live arc-weight updates."""

    _changed = "changed_super_shortcuts"

    def __init__(
        self, graph: DiRoadNetwork, ordering: Optional[Ordering] = None
    ) -> None:
        self._graph = graph
        self.counter = OpCounter()
        self.index = directed_h2h_indexing(graph, ordering, self.counter)

    def distance(self, s: int, t: int) -> float:
        """``sd(s -> t)`` read from the directed labels."""
        return directed_h2h_distance(self.index, s, t, self.counter)

    def _maintain(self, increase: bool, batch, ops) -> List:
        run = directed_inch2h_increase if increase else directed_inch2h_decrease
        return run(self.index, batch, ops)

    def distance_many(self, sources, targets) -> np.ndarray:
        """:meth:`distance` for every pair ``(sources[i], targets[i])``
        in one vectorised scan (:meth:`DirectedH2HIndex.distance_many`)."""
        return self.index.distance_many(sources, targets, self.counter)

    def rebuild(self) -> None:
        """Recompute the index from the current network.

        The skeleton and the tree decomposition are weight independent,
        so the index's own are kept: the arc store is reweighed and the
        labels refilled, equal to a fresh :func:`directed_h2h_indexing`
        in the same order."""
        sc = _reweigh(self._graph, self.index.sc, self.counter)
        self.index = directed_fill_labels(sc, self.index.tree, self.counter)
