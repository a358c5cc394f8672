"""Dynamic oracle facades: the library's main entry points.

:class:`DynamicCH` and :class:`DynamicH2H` tie together an index, its
maintenance algorithms, and the instrumentation: construct once, then
interleave ``distance`` queries with ``apply`` update batches.  A batch
may mix increases and decreases; the facade splits it and dispatches the
increase part to the ``+`` algorithm and the decrease part to the ``-``
algorithm, exactly as the paper's experiments do (Exp-4 applies an
increase batch, then restores with a decrease batch).

The directed facades (:mod:`repro.directed.dynamic`) subclass
:class:`DynamicCH` and :class:`DynamicH2H` and differ only in the
build: every query, path, maintenance step and rebuild here reads the
direction count off the index (``D = 1`` or ``2``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.ch.dch import dch_decrease, dch_increase
from repro.ch.indexing import ch_indexing, weigh_structure
from repro.ch.query import ch_distance, ch_distance_many, ch_path
from repro.graph.graph import WeightUpdate, validate_batch
from repro.h2h.inch2h import ChangedLabels, inch2h_decrease, inch2h_increase
from repro.h2h.indexing import fill_distance_arrays, h2h_indexing
from repro.h2h.query import h2h_distance
from repro.h2h.tree import TreeDecomposition
from repro.order.ordering import Ordering
from repro.perf.coalesce import coalesce_updates
from repro.utils.counters import OpCounter

__all__ = ["DynamicCH", "DynamicH2H", "DynamicOracle", "UpdateReport"]


@dataclass
class UpdateReport:
    """What one :meth:`DynamicOracle.apply` call did.

    Attributes
    ----------
    increases / decreases:
        Number of edges (arcs, on a directed network) whose weight went
        up / down.
    changed_shortcuts:
        Shortcuts whose weight changed (AFF_2); directed CH lists the
        changed arcs ``((tail, head), old, new)``.  Empty for H2H.
    changed_super_shortcuts:
        Super-shortcuts whose value changed (AFF_3), as
        :class:`~repro.h2h.inch2h.ChangedLabels` arrays: a mixed batch
        lists its increase half, then its decrease half.  Iterating
        yields ``((u, depth_a), old, new)`` (``((direction, u, depth_a),
        old, new)`` on a directed network) and ``len`` is ``|AFF_3|``.
        Empty for CH.
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
    changed_super_shortcuts: ChangedLabels = field(default_factory=ChangedLabels)
    ops: dict = field(default_factory=dict)
    superseded: int = 0
    dropped: int = 0


def _reweigh(graph, sc, counter: OpCounter):
    """CHIndexing of *graph* (undirected or directed) on the order and
    structure of *sc*, which weight updates never change
    (:func:`weigh_structure`)."""
    return weigh_structure(sc.ordering, sc.structure, graph, counter)


class DynamicOracle:
    """What the four facades share: the network, the counter, the index,
    cloning and :meth:`apply`.

    A subclass supplies ``_build(graph, ordering, counter)``, the
    queries, ``_maintain(increase, batch, ops)`` (which returns the
    changes to list in the report field named by ``_changed``) and
    ``rebuild()``.
    """

    #: The :class:`UpdateReport` list :meth:`_maintain`'s changes go in.
    _changed = "changed_shortcuts"

    def __init__(self, graph, ordering: Optional[Ordering] = None) -> None:
        self._graph = graph
        self.counter = OpCounter()
        self.index = self._build(graph, ordering, self.counter)

    @classmethod
    def from_index(cls, graph, index):
        """Wrap an already-built index (e.g. loaded from an archive)
        without paying its indexing again; *graph* must be the network
        the index was built on, in its current state."""
        oracle = cls.__new__(cls)
        oracle._graph = graph
        oracle.counter = OpCounter()
        oracle.index = index
        return oracle

    def clone(self):
        """An independent copy: same answers, disjoint mutable state.

        Applying updates to the clone leaves this oracle (and its
        answers) untouched — the copy-on-write primitive behind
        :mod:`repro.serve`'s epoch snapshots.
        """
        return type(self).from_index(self._graph.copy(), self.index.clone())

    @property
    def graph(self):
        """The network in its current state."""
        return self._graph

    def apply(
        self, updates: Sequence[WeightUpdate], *, coalesce: bool = False
    ) -> UpdateReport:
        """Apply a (possibly mixed) weight-update batch.

        The whole batch is checked first (:func:`validate_batch`: every
        edge known, every weight a non-negative number, no edge twice;
        keyed per ordered arc on a directed network), so a rejected batch
        changes nothing.  It is then split against the current weights;
        no-op updates are dropped, the increases are written and
        maintained, then the decreases.

        With *coalesce*, the raw stream is first merged into its net
        effect (:func:`repro.perf.coalesce.coalesce_updates`): one
        propagation per direction for the whole batch, same final state
        as applying the stream one update at a time.
        """
        superseded = dropped = 0
        if coalesce:
            batch = coalesce_updates(
                updates, self._graph.weight, directed=hasattr(self._graph, "arcs")
            )
            updates = batch.updates
            superseded, dropped = batch.superseded, batch.dropped
        updates = list(updates)
        increases: List[WeightUpdate] = []
        decreases: List[WeightUpdate] = []
        for update, (_key, old) in zip(updates, validate_batch(self._graph, updates)):
            if update[1] > old:
                increases.append(update)
            elif update[1] < old:
                decreases.append(update)
        ops = OpCounter()
        report = UpdateReport(
            len(increases), len(decreases), superseded=superseded, dropped=dropped
        )
        name = self._changed
        for increase, half in ((True, increases), (False, decreases)):
            if half:
                for (u, v), w in half:
                    self._graph.set_weight(u, v, w)
                changed = self._maintain(increase, half, ops)
                setattr(report, name, getattr(report, name) + changed)
        report.ops = ops.as_dict()
        self.counter.merge(ops)
        return report


class DynamicCH(DynamicOracle):
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

    def _build(self, graph, ordering, counter):
        return ch_indexing(graph, ordering, counter)

    def distance(self, s: int, t: int) -> float:
        """Shortest distance via bidirectional upward search."""
        return ch_distance(self.index, s, t, self.counter)

    def distance_many(self, sources, targets) -> np.ndarray:
        """:meth:`distance` for every pair ``(sources[i], targets[i])``
        from one upward label pass over the batch's elimination-tree
        ancestors (:func:`repro.ch.query.ch_distance_many`)."""
        return ch_distance_many(self.index, sources, targets, self.counter)

    def path(self, s: int, t: int):
        """A shortest path with shortcuts unpacked to real edges (arcs,
        on a directed network)."""
        return ch_path(self.index, s, t, self.counter)

    def _maintain(self, increase: bool, batch, ops) -> List:
        run = dch_increase if increase else dch_decrease
        return run(self.index, batch, ops)

    def rebuild(self) -> None:
        """Recompute the index from the current network (CHIndexing).

        The vertex order and the shortcut structure are weight
        independent, so the index's own are reused: only the weights,
        supports and witnesses are recomputed, equal to a fresh
        :func:`ch_indexing` in the same order."""
        self.index = _reweigh(self._graph, self.index, self.counter)


class DynamicH2H(DynamicOracle):
    """A hierarchical 2-hop index that stays correct under weight updates.

    Example
    -------
    >>> from repro.graph import grid_network
    >>> oracle = DynamicH2H(grid_network(4, 4, seed=3))
    >>> oracle.distance(0, 15) == DynamicCH(grid_network(4, 4, seed=3)).distance(0, 15)
    True
    """

    _changed = "changed_super_shortcuts"
    #: A per-call read scans two labels, which costs about what a cache
    #: get and put would: :class:`~repro.serve.DistanceServer` keeps no
    #: cache in front of an oracle that says so.
    reads_labels = True

    def _build(self, graph, ordering, counter):
        return h2h_indexing(graph, ordering, counter)

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

    def _maintain(self, increase: bool, batch, ops) -> List:
        run = inch2h_increase if increase else inch2h_decrease
        return run(self.index, batch, ops)

    def rebuild(self) -> None:
        """Recompute from the current network (the paper's recompute
        baseline).  The tree decomposition is weight independent, so it
        is kept: only the shortcut weights and distance arrays are
        rebuilt."""
        sc = _reweigh(self._graph, self.index.sc, self.counter)
        self.index = fill_distance_arrays(sc, self.index.tree, self.counter)
