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

Nothing here is a second implementation.  The index is the ``D = 2``
case of :class:`repro.h2h.index.H2HIndex`: its labels are one
``(2, n, width)`` array per kind (``dis[TO]``, ``dis[FROM]``) over the
directed CH store's ``(2, slots)`` weights, whose slot order is the
tree's upward CSR (``phi(low -> high)`` in row ``TO`` and
``phi(high -> low)`` in row ``FROM`` for the slot of shortcut
``(low, high)``).  The labels are filled by
:func:`repro.h2h.indexing.fill_distance_arrays` and maintained by
:func:`repro.h2h.inch2h.inch2h_increase` /
:func:`repro.h2h.inch2h.inch2h_decrease`, after DCH± on the ``D = 2``
store, as they are on ``D = 1``.
"""

from __future__ import annotations

from typing import Optional

from repro.directed.ch import directed_ch_indexing
from repro.directed.graph import DiRoadNetwork
from repro.h2h.index import H2HIndex
from repro.h2h.indexing import fill_distance_arrays
from repro.h2h.tree import TreeDecomposition
from repro.order.ordering import Ordering
from repro.utils.counters import OpCounter

__all__ = ["directed_h2h_indexing"]

#: The label matrices of a directed index: ``dis[TO][u]`` holds
#: ``sd(u -> a)``, ``dis[FROM][u]`` holds ``sd(a -> u)``.
TO, FROM = 0, 1


def directed_h2h_indexing(
    graph: DiRoadNetwork,
    ordering: Optional[Ordering] = None,
    counter: Optional[OpCounter] = None,
) -> H2HIndex:
    """Build the directed H2H index: directed CHIndexing, the skeleton's
    tree decomposition, then both label matrices filled top-down
    (:func:`repro.h2h.indexing.fill_distance_arrays`)."""
    sc = directed_ch_indexing(graph, ordering, counter)
    return fill_distance_arrays(sc, TreeDecomposition(sc), counter)
