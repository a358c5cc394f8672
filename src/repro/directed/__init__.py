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
  decomposition: the ``D = 2`` case of the one label index
  :class:`~repro.h2h.index.H2HIndex`, filled by
  :func:`repro.h2h.indexing.fill_distance_arrays`;
* H2H maintenance — :func:`repro.h2h.inch2h.inch2h_increase` /
  :func:`repro.h2h.inch2h.inch2h_decrease` run on the directed index as
  they are, over its two label matrices;
* :class:`~repro.directed.dynamic.DynamicDiCH` /
  :class:`~repro.directed.dynamic.DynamicDiH2H` — the facades:
  :class:`~repro.core.dynamic.DynamicCH` and
  :class:`~repro.core.dynamic.DynamicH2H` with the directed build.
"""

from repro.directed.ch import directed_ch_indexing
from repro.directed.dijkstra import directed_dijkstra
from repro.directed.dynamic import DynamicDiCH, DynamicDiH2H
from repro.directed.graph import DiRoadNetwork
from repro.directed.h2h import directed_h2h_indexing

__all__ = [
    "DiRoadNetwork",
    "DynamicDiCH",
    "DynamicDiH2H",
    "directed_ch_indexing",
    "directed_dijkstra",
    "directed_h2h_indexing",
]
