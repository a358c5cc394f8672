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

from repro.directed.ch import directed_ch_distance, directed_ch_indexing
from repro.directed.dch import (
    ArcUpdate,
    directed_dch_decrease,
    directed_dch_increase,
)
from repro.directed.graph import DiRoadNetwork
from repro.directed.h2h import (
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


class DynamicDiCH:
    """A directed contraction hierarchy under live arc-weight updates.

    Example
    -------
    >>> g = DiRoadNetwork(3)
    >>> g.add_arc(0, 1, 2.0); g.add_arc(1, 2, 2.0); g.add_arc(2, 0, 9.0)
    >>> oracle = DynamicDiCH(g)
    >>> oracle.distance(0, 2)
    4.0
    """

    def __init__(
        self, graph: DiRoadNetwork, ordering: Optional[Ordering] = None
    ) -> None:
        self._graph = graph
        self.counter = OpCounter()
        self.index = directed_ch_indexing(graph, ordering, self.counter)

    def clone(self) -> "DynamicDiCH":
        """An independent copy: same answers, disjoint mutable state."""
        dup = DynamicDiCH.__new__(DynamicDiCH)
        dup._graph = self._graph.copy()
        dup.counter = OpCounter()
        dup.index = self.index.clone()
        return dup

    @property
    def graph(self) -> DiRoadNetwork:
        """The directed network in its current state."""
        return self._graph

    def distance(self, s: int, t: int) -> float:
        """``sd(s -> t)`` under current weights."""
        return directed_ch_distance(self.index, s, t, self.counter)

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
            increases=len(increases),
            decreases=len(decreases),
            superseded=superseded,
            dropped=dropped,
        )
        if increases:
            for (u, v), w in increases:
                self._graph.set_weight(u, v, w)
            report.changed_shortcut_arcs += directed_dch_increase(
                self.index, increases, ops
            )
        if decreases:
            for (u, v), w in decreases:
                self._graph.set_weight(u, v, w)
            report.changed_shortcut_arcs += directed_dch_decrease(
                self.index, decreases, ops
            )
        report.ops = ops.as_dict()
        self.counter.merge(ops)
        return report

    def rebuild(self) -> None:
        """Recompute the index from the current network."""
        self.index = directed_ch_indexing(
            self._graph, self.index.ordering, self.counter
        )


class DynamicDiH2H:
    """A directed H2H oracle under live arc-weight updates."""

    def __init__(
        self, graph: DiRoadNetwork, ordering: Optional[Ordering] = None
    ) -> None:
        self._graph = graph
        self.counter = OpCounter()
        self.index = directed_h2h_indexing(graph, ordering, self.counter)

    def clone(self) -> "DynamicDiH2H":
        """An independent copy: same answers, disjoint mutable state."""
        dup = DynamicDiH2H.__new__(DynamicDiH2H)
        dup._graph = self._graph.copy()
        dup.counter = OpCounter()
        dup.index = self.index.clone()
        return dup

    @property
    def graph(self) -> DiRoadNetwork:
        """The directed network in its current state."""
        return self._graph

    def distance(self, s: int, t: int) -> float:
        """``sd(s -> t)`` read from the directed labels."""
        return directed_h2h_distance(self.index, s, t, self.counter)

    def distance_many(self, sources, targets) -> np.ndarray:
        """:meth:`distance` for every pair ``(sources[i], targets[i])``
        in one vectorised scan (:meth:`DirectedH2HIndex.distance_many`)."""
        return self.index.distance_many(sources, targets, self.counter)

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
            increases=len(increases),
            decreases=len(decreases),
            superseded=superseded,
            dropped=dropped,
        )
        if increases:
            for (u, v), w in increases:
                self._graph.set_weight(u, v, w)
            report.changed_super_shortcuts += directed_inch2h_increase(
                self.index, increases, ops
            )
        if decreases:
            for (u, v), w in decreases:
                self._graph.set_weight(u, v, w)
            report.changed_super_shortcuts += directed_inch2h_decrease(
                self.index, decreases, ops
            )
        report.ops = ops.as_dict()
        self.counter.merge(ops)
        return report

    def rebuild(self) -> None:
        """Recompute the index from the current network."""
        self.index = directed_h2h_indexing(
            self._graph, self.index.sc.ordering, self.counter
        )
