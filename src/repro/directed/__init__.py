"""Directed road networks (the extension noted in Section 2).

The paper presents CH/H2H and their maintenance for undirected graphs
"for ease of exposition, emphasizing that our results and algorithms
can be extended to the directed case".  This subpackage carries out
that extension for CH and H2H and their maintenance, and reuses the
undirected code wherever the job is the same:

* :class:`~repro.directed.graph.DiRoadNetwork` — arc-weighted directed
  graphs (one-way streets, asymmetric transit times);
* :func:`~repro.directed.ch.directed_ch_indexing` — the contraction
  hierarchy over per-direction shortcut weights, the ``D = 2`` case of
  the one CH store :class:`~repro.ch.shortcut_graph.ShortcutGraph` (the
  shortcut *set* stays symmetric — it is the elimination fill of the
  symmetrized graph, weight independent as before — while each shortcut
  carries a forward and a backward weight);
* queries — :func:`repro.ch.query.ch_distance` (forward-upward /
  backward-upward search), :func:`repro.ch.query.ch_distance_many` and
  :func:`repro.h2h.query.h2h_distance` take a directed index as they are;
* maintenance — :func:`repro.ch.dch.dch_increase` /
  :func:`repro.ch.dch.dch_decrease` run on the directed store as they
  are, with per-direction supports;
* :func:`~repro.directed.h2h.directed_h2h_indexing` — H2H with ``TO``
  and ``FROM`` labels per vertex–ancestor pair over the skeleton's tree
  decomposition;
* :func:`~repro.directed.h2h.directed_inch2h_increase` /
  :func:`~repro.directed.h2h.directed_inch2h_decrease` — IncH2H± on
  the level-synchronous engine of :mod:`repro.h2h.inch2h`, run over the
  two label matrices;
* :class:`~repro.directed.dynamic.DynamicDiCH` /
  :class:`~repro.directed.dynamic.DynamicDiH2H` — the facades, on the
  base class and update report of :mod:`repro.core.dynamic`.
"""

from repro.directed.ch import directed_ch_indexing
from repro.directed.dijkstra import directed_dijkstra
from repro.directed.dynamic import DynamicDiCH, DynamicDiH2H
from repro.directed.graph import DiRoadNetwork
from repro.directed.h2h import (
    DirectedH2HIndex,
    directed_h2h_indexing,
    directed_inch2h_decrease,
    directed_inch2h_increase,
)

__all__ = [
    "DiRoadNetwork",
    "DirectedH2HIndex",
    "DynamicDiCH",
    "DynamicDiH2H",
    "directed_ch_indexing",
    "directed_dijkstra",
    "directed_h2h_indexing",
    "directed_inch2h_decrease",
    "directed_inch2h_increase",
]
