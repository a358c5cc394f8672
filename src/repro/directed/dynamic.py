"""Dynamic oracle facades for directed networks.

The directed halves of :mod:`repro.core.dynamic`, on the same
:class:`~repro.core.dynamic.DynamicOracle` base and the same
:class:`~repro.core.dynamic.UpdateReport`: build once, then interleave
asymmetric distance queries with per-arc weight updates; mixed batches
are split and dispatched to DCH± on the directed store / directed
IncH2H.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.ch.query import ch_distance, ch_distance_many
from repro.ch.dch import dch_decrease, dch_increase
from repro.core.dynamic import DynamicOracle, _reweigh
from repro.directed.ch import directed_ch_indexing
from repro.directed.graph import DiRoadNetwork
from repro.directed.h2h import (
    directed_fill_labels,
    directed_h2h_indexing,
    directed_inch2h_decrease,
    directed_inch2h_increase,
)
from repro.h2h.query import h2h_distance

__all__ = ["DynamicDiCH", "DynamicDiH2H"]


class DynamicDiCH(DynamicOracle):
    """A directed contraction hierarchy under live arc-weight updates.

    Example
    -------
    >>> g = DiRoadNetwork(3)
    >>> g.add_arc(0, 1, 2.0); g.add_arc(1, 2, 2.0); g.add_arc(2, 0, 9.0)
    >>> oracle = DynamicDiCH(g)
    >>> oracle.distance(0, 2)
    4.0
    """

    def _build(self, graph, ordering, counter):
        return directed_ch_indexing(graph, ordering, counter)

    def distance(self, s: int, t: int) -> float:
        """``sd(s -> t)`` under current weights (:func:`ch_distance`
        over the store's two weight rows)."""
        return ch_distance(self.index, s, t, self.counter)

    def distance_many(self, sources, targets) -> np.ndarray:
        """:meth:`distance` for every pair ``(sources[i], targets[i])``:
        the undirected batch kernel over the store's ``(2, slots)`` rows
        (:func:`repro.ch.query.ch_distance_many`)."""
        return ch_distance_many(self.index, sources, targets, self.counter)

    def _maintain(self, increase: bool, batch, ops) -> List:
        run = dch_increase if increase else dch_decrease
        return run(self.index, batch, ops)

    def rebuild(self) -> None:
        """Recompute the index from the current network.

        The order and the skeleton are weight independent, so the
        index's own are reused: only the weights and supports are
        recomputed, equal to a fresh :func:`directed_ch_indexing` in the
        same order."""
        self.index = _reweigh(self._graph, self.index, self.counter)


class DynamicDiH2H(DynamicOracle):
    """A directed H2H oracle under live arc-weight updates."""

    _changed = "changed_super_shortcuts"
    #: Per-call reads scan labels: served without a cache (see
    #: :attr:`repro.core.dynamic.DynamicH2H.reads_labels`).
    reads_labels = True

    def _build(self, graph, ordering, counter):
        return directed_h2h_indexing(graph, ordering, counter)

    def distance(self, s: int, t: int) -> float:
        """``sd(s -> t)`` read from the directed labels
        (:func:`h2h_distance` over ``dis[TO]`` and ``dis[FROM]``)."""
        return h2h_distance(self.index, s, t, self.counter)

    def distance_many(self, sources, targets) -> np.ndarray:
        """:meth:`distance` for every pair ``(sources[i], targets[i])``
        in one vectorised scan (:meth:`DirectedH2HIndex.distance_many`)."""
        return self.index.distance_many(sources, targets, self.counter)

    def _maintain(self, increase: bool, batch, ops) -> List:
        run = directed_inch2h_increase if increase else directed_inch2h_decrease
        return run(self.index, batch, ops)

    def rebuild(self) -> None:
        """Recompute the index from the current network.

        The skeleton and the tree decomposition are weight independent,
        so the index's own are kept: the arc store is reweighed and the
        labels refilled, equal to a fresh :func:`directed_h2h_indexing`
        in the same order."""
        sc = _reweigh(self._graph, self.index.sc, self.counter)
        self.index = directed_fill_labels(sc, self.index.tree, self.counter)
