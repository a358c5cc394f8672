"""Dynamic oracle facades: the library's main entry points.

:class:`DynamicCH` and :class:`DynamicH2H` tie together an index, its
maintenance algorithms, and the instrumentation: construct once, then
interleave ``distance`` queries with ``apply`` update batches.  A batch
may mix increases and decreases; the facade splits it and dispatches the
increase part to the ``+`` algorithm and the decrease part to the ``-``
algorithm, exactly as the paper's experiments do (Exp-4 applies an
increase batch, then restores with a decrease batch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ch.dch import dch_decrease, dch_increase
from repro.ch.indexing import ch_indexing, edge_columns, weigh_structure
from repro.ch.query import ch_distance, ch_path
from repro.errors import UpdateError
from repro.graph.graph import RoadNetwork, WeightUpdate
from repro.h2h.inch2h import inch2h_decrease, inch2h_increase
from repro.h2h.indexing import fill_distance_arrays, h2h_indexing
from repro.h2h.query import h2h_distance
from repro.h2h.tree import TreeDecomposition
from repro.order.ordering import Ordering
from repro.perf.coalesce import coalesce_updates
from repro.utils.counters import OpCounter

__all__ = ["DynamicCH", "DynamicH2H", "UpdateReport"]


@dataclass
class UpdateReport:
    """What one :meth:`apply` call did.

    Attributes
    ----------
    increases / decreases:
        Number of edges whose weight went up / down.
    changed_shortcuts:
        Shortcuts whose weight changed (AFF_2).
    changed_super_shortcuts:
        Super-shortcuts whose value changed (AFF_3); 0 for CH.
    ops:
        Operation counts of the maintenance work, by channel.
    superseded / dropped:
        Raw updates absorbed by coalescing (0 when ``coalesce=False``):
        later writes to the same edge, and edges whose net change was
        zero.
    """

    increases: int = 0
    decreases: int = 0
    changed_shortcuts: List = field(default_factory=list)
    changed_super_shortcuts: List = field(default_factory=list)
    ops: dict = field(default_factory=dict)
    superseded: int = 0
    dropped: int = 0


def _split_batch(
    graph: RoadNetwork, updates: Sequence[WeightUpdate]
) -> Tuple[List[WeightUpdate], List[WeightUpdate]]:
    """Split a mixed batch into (increases, decreases) vs current weights.

    No-op updates (same weight) are dropped; duplicate edges rejected.
    """
    increases: List[WeightUpdate] = []
    decreases: List[WeightUpdate] = []
    seen = set()
    for (u, v), w in updates:
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise UpdateError(f"edge ({u}, {v}) appears twice in one batch")
        seen.add(key)
        old = graph.weight(u, v)
        if w > old:
            increases.append(((u, v), w))
        elif w < old:
            decreases.append(((u, v), w))
    return increases, decreases


def _reweigh(graph: RoadNetwork, sc, counter: OpCounter):
    """CHIndexing of *graph* on the order and structure of *sc*, which
    weight updates never change (:func:`weigh_structure`)."""
    return weigh_structure(
        sc.ordering, sc.structure, *edge_columns(graph.edges()), counter
    )


class DynamicCH:
    """A contraction hierarchy that stays correct under weight updates.

    Example
    -------
    >>> from repro.graph import grid_network
    >>> oracle = DynamicCH(grid_network(4, 4, seed=3))
    >>> d0 = oracle.distance(0, 15)
    >>> report = oracle.apply([((0, 1), oracle.graph.weight(0, 1) * 2)])
    >>> oracle.distance(0, 15) >= d0
    True
    """

    def __init__(
        self, graph: RoadNetwork, ordering: Optional[Ordering] = None
    ) -> None:
        self._graph = graph
        self.counter = OpCounter()
        self.index = ch_indexing(graph, ordering, self.counter)

    @classmethod
    def from_index(cls, graph: RoadNetwork, index) -> "DynamicCH":
        """Wrap an already-built CH index (e.g. loaded from an archive)
        without paying CHIndexing again; *graph* must be the network the
        index was built on, in its current state."""
        oracle = cls.__new__(cls)
        oracle._graph = graph
        oracle.counter = OpCounter()
        oracle.index = index
        return oracle

    def clone(self) -> "DynamicCH":
        """An independent copy: same answers, disjoint mutable state.

        Applying updates to the clone leaves this oracle (and its
        answers) untouched — the copy-on-write primitive behind
        :mod:`repro.serve`'s epoch snapshots.
        """
        return DynamicCH.from_index(self._graph.copy(), self.index.clone())

    @property
    def graph(self) -> RoadNetwork:
        """The road network in its current state."""
        return self._graph

    def distance(self, s: int, t: int) -> float:
        """Shortest distance via bidirectional upward search."""
        return ch_distance(self.index, s, t, self.counter)

    def path(self, s: int, t: int):
        """A shortest path with shortcuts unpacked to real edges."""
        return ch_path(self.index, s, t, self.counter)

    def apply(
        self, updates: Sequence[WeightUpdate], *, coalesce: bool = False
    ) -> UpdateReport:
        """Apply a (possibly mixed) weight-update batch with DCH.

        With *coalesce*, the raw stream is first merged into its net
        effect (:func:`repro.perf.coalesce.coalesce_updates`): one DCH
        propagation per direction for the whole batch, same final state
        as applying the stream one update at a time.
        """
        superseded = dropped = 0
        if coalesce:
            batch = coalesce_updates(updates, self._graph.weight)
            updates = batch.updates
            superseded, dropped = batch.superseded, batch.dropped
        increases, decreases = _split_batch(self._graph, updates)
        ops = OpCounter()
        report = UpdateReport(
            increases=len(increases),
            decreases=len(decreases),
            superseded=superseded,
            dropped=dropped,
        )
        if increases:
            self._graph.apply_batch(increases)
            report.changed_shortcuts += dch_increase(self.index, increases, ops)
        if decreases:
            self._graph.apply_batch(decreases)
            report.changed_shortcuts += dch_decrease(self.index, decreases, ops)
        report.ops = ops.as_dict()
        self.counter.merge(ops)
        return report

    def rebuild(self) -> None:
        """Recompute the index from the current network (CHIndexing).

        The vertex order and the shortcut structure are weight
        independent, so the index's own are reused: only the weights,
        supports and witnesses are recomputed, equal to a fresh
        :func:`ch_indexing` in the same order."""
        self.index = _reweigh(self._graph, self.index, self.counter)


class DynamicH2H:
    """A hierarchical 2-hop index that stays correct under weight updates.

    Example
    -------
    >>> from repro.graph import grid_network
    >>> oracle = DynamicH2H(grid_network(4, 4, seed=3))
    >>> oracle.distance(0, 15) == DynamicCH(grid_network(4, 4, seed=3)).distance(0, 15)
    True
    """

    def __init__(
        self, graph: RoadNetwork, ordering: Optional[Ordering] = None
    ) -> None:
        self._graph = graph
        self._ordering = ordering
        self.counter = OpCounter()
        self.index = h2h_indexing(graph, ordering, self.counter)

    @classmethod
    def from_index(cls, graph: RoadNetwork, index) -> "DynamicH2H":
        """Wrap an already-built H2H index (e.g. loaded from an archive)
        without paying H2HIndexing again; *graph* must be the network the
        index was built on, in its current state."""
        oracle = cls.__new__(cls)
        oracle._graph = graph
        oracle._ordering = index.sc.ordering
        oracle.counter = OpCounter()
        oracle.index = index
        return oracle

    def clone(self) -> "DynamicH2H":
        """An independent copy: same answers, disjoint mutable state."""
        return DynamicH2H.from_index(self._graph.copy(), self.index.clone())

    @property
    def graph(self) -> RoadNetwork:
        """The road network in its current state."""
        return self._graph

    @property
    def tree(self) -> TreeDecomposition:
        """The underlying tree decomposition."""
        return self.index.tree

    def distance(self, s: int, t: int) -> float:
        """Shortest distance from the distance arrays (no search)."""
        return h2h_distance(self.index, s, t, self.counter)

    def distance_many(self, sources, targets) -> np.ndarray:
        """:meth:`distance` for every pair ``(sources[i], targets[i])``
        in one vectorised scan (:meth:`H2HIndex.distance_many`)."""
        return self.index.distance_many(sources, targets, self.counter)

    def apply(
        self, updates: Sequence[WeightUpdate], *, coalesce: bool = False
    ) -> UpdateReport:
        """Apply a (possibly mixed) weight-update batch with IncH2H.

        With *coalesce*, the raw stream is first merged into its net
        effect (:func:`repro.perf.coalesce.coalesce_updates`): one
        IncH2H propagation per direction for the whole batch, same final
        state as applying the stream one update at a time.
        """
        superseded = dropped = 0
        if coalesce:
            batch = coalesce_updates(updates, self._graph.weight)
            updates = batch.updates
            superseded, dropped = batch.superseded, batch.dropped
        increases, decreases = _split_batch(self._graph, updates)
        ops = OpCounter()
        report = UpdateReport(
            increases=len(increases),
            decreases=len(decreases),
            superseded=superseded,
            dropped=dropped,
        )
        if increases:
            self._graph.apply_batch(increases)
            report.changed_super_shortcuts += inch2h_increase(
                self.index, increases, ops
            )
        if decreases:
            self._graph.apply_batch(decreases)
            report.changed_super_shortcuts += inch2h_decrease(
                self.index, decreases, ops
            )
        report.ops = ops.as_dict()
        self.counter.merge(ops)
        return report

    def rebuild(self, weights_only: bool = True) -> None:
        """Recompute from the current network.

        With *weights_only* (the paper's recompute baseline), the tree
        decomposition is kept — it is weight independent — and only the
        shortcut weights and distance arrays are rebuilt.
        """
        if weights_only:
            sc = _reweigh(self._graph, self.index.sc, self.counter)
            self.index = fill_distance_arrays(sc, self.index.tree, self.counter)
        else:
            self.index = h2h_indexing(self._graph, self._ordering, self.counter)
