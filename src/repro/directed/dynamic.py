"""Dynamic oracle facades for directed networks.

The directed twins of :class:`~repro.core.dynamic.DynamicCH` and
:class:`~repro.core.dynamic.DynamicH2H`: build once, then interleave
asymmetric distance queries with per-arc weight updates.  Only the
build differs.  Queries, paths, maintenance (DCH± and IncH2H± on the
``D = 2`` stores), cloning and rebuilds are the undirected facades' own,
which read the direction count off the index.
"""

from __future__ import annotations

from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.directed.ch import directed_ch_indexing
from repro.directed.graph import DiRoadNetwork
from repro.directed.h2h import directed_h2h_indexing

__all__ = ["DynamicDiCH", "DynamicDiH2H"]


class DynamicDiCH(DynamicCH):
    """A directed contraction hierarchy under live arc-weight updates.

    Example
    -------
    >>> g = DiRoadNetwork(3)
    >>> g.add_arc(0, 1, 2.0); g.add_arc(1, 2, 2.0); g.add_arc(2, 0, 9.0)
    >>> oracle = DynamicDiCH(g)
    >>> oracle.distance(0, 2)
    4.0
    >>> oracle.path(0, 2)
    [0, 1, 2]
    """

    def _build(self, graph, ordering, counter):
        return directed_ch_indexing(graph, ordering, counter)


class DynamicDiH2H(DynamicH2H):
    """A directed H2H oracle under live arc-weight updates."""

    def _build(self, graph, ordering, counter):
        return directed_h2h_indexing(graph, ordering, counter)
