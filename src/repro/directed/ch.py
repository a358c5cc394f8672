"""Directed contraction hierarchy: the ``D = 2`` case of the CH store.

The weight-independent backbone is unchanged: the contraction order and
the shortcut *set* come from the symmetrized graph, exactly as in the
undirected case (Section 2's variant).  What changes is that every
shortcut ``<low, high>`` now carries **two** weights — the shortest
valley paths ``low -> high`` and ``high -> low`` — each satisfying its
own directed Equation (<>).  They are rows ``TO`` and ``FROM`` of the
``(2, slots)`` arrays of the one CH store,
:class:`~repro.ch.shortcut_graph.ShortcutGraph`, whose per-pair
accessors then mean the arc ``u -> v``.

Everything else is the undirected code, run on ``D = 2``: queries
(:mod:`repro.ch.query`: a forward upward search from ``s`` over row
``TO`` meets a backward one from ``t`` over row ``FROM``, as in the
classic directed CH [26]), DCH± (:mod:`repro.ch.dch`, on arc ids) and
the weighing of CHIndexing (:func:`repro.ch.indexing.weigh_structure`).
"""

from __future__ import annotations

from typing import Optional

from repro.ch.indexing import edge_columns, eliminated_structure, weigh_structure
from repro.ch.shortcut_graph import ShortcutGraph
from repro.directed.graph import DiRoadNetwork
from repro.order.ordering import Ordering
from repro.utils.counters import OpCounter

__all__ = ["directed_ch_indexing"]


def directed_ch_indexing(
    graph: DiRoadNetwork,
    ordering: Optional[Ordering] = None,
    counter: Optional[OpCounter] = None,
) -> ShortcutGraph:
    """Build the directed CH index (Algorithm 1, one relax per direction).

    The ordering defaults to the minimum degree heuristic on the
    symmetrized graph; the skeleton therefore matches the undirected
    index of the same network.  The weights come from
    :func:`~repro.ch.indexing.weigh_structure` on that skeleton.
    """
    skeleton = graph.symmetrized()
    u, v, _ = edge_columns(skeleton.edges())
    ordering, st = eliminated_structure(skeleton, ordering, u, v)
    return weigh_structure(ordering, st, graph, counter)
