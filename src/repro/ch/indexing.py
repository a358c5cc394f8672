"""CHIndexing — Algorithm 1 of the paper, as a symbolic elimination
followed by a level pass.

Algorithm 1 contracts vertices in the order ``pi``: when ``u`` is
contracted, every pair of its higher-ranked neighbors ``v, w`` receives
(or relaxes) a shortcut weighted ``phi(<u, v>) + phi(<u, w>)``.  The
shortcut *set* this produces does not depend on the weights (Section 2),
so the build splits in two:

1. **Structure.**  :func:`repro.order.min_degree.eliminate` eliminates
   ``G`` symbolically — in minimum degree order when no ``pi`` is given
   (the paper's default, following [39]; its fill is reused rather than
   recomputed), in ``pi`` otherwise — and the shortcuts ``E`` plus fill
   are laid out as one :class:`~repro.ch.shortcut_graph.ShortcutStructure`
   with its elimination tree.
2. **Weights, supports, witnesses.**  Every contraction step of
   Algorithm 1 is one triangle ``(u; v, w)`` of that structure, and the
   vertices of one elimination-tree height are an independent set whose
   legs are final once the lower heights are done.  The level pass of
   :mod:`repro.perf.kernels` relaxes each height in one vectorised step,
   so the weights satisfy Equation (<>), then counts the tying terms of
   every shortcut (``sup``) and picks its witness (``via``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.graph.graph import RoadNetwork
from repro.order.min_degree import check_connected, eliminate
from repro.order.ordering import Ordering
from repro.ch.shortcut_graph import ShortcutGraph, ShortcutStructure
from repro.perf import kernels
from repro.utils.counters import OpCounter, resolve_counter

__all__ = [
    "ch_indexing",
    "edge_columns",
    "eliminated_structure",
    "held_arcs",
    "weigh_structure",
]


def ch_indexing(
    graph: RoadNetwork,
    ordering: Optional[Ordering] = None,
    counter: Optional[OpCounter] = None,
    with_support: bool = True,
) -> ShortcutGraph:
    """Construct the CH index of *graph* (Algorithm 1).

    Parameters
    ----------
    graph:
        The road network.
    ordering:
        The contraction order ``pi``; computed with the minimum degree
        heuristic when omitted (the paper's default, following [39]).
    counter:
        Optional :class:`OpCounter`; every contraction term (one per
        triangle of the shortcut graph) is tallied under
        ``"contract_pair"`` and, again, under ``"scp_minus_inspect"``
        when supports are built.
    with_support:
        Also build the ``sup``/``via`` auxiliaries needed by the
        incremental algorithms (adds one Equation (<>) pass).

    Returns
    -------
    ShortcutGraph

    Example
    -------
    >>> from repro.graph import grid_network
    >>> sc = ch_indexing(grid_network(3, 3, seed=1))
    >>> sc.num_shortcuts >= grid_network(3, 3, seed=1).m
    True
    """
    u, v, w = edge_columns(graph.edges())
    ordering, st = eliminated_structure(graph, ordering, u, v)
    return _weigh(ordering, st, 1, u, v, w, counter, with_support)


def weigh_structure(
    ordering: Ordering,
    st: ShortcutStructure,
    graph,
    counter: Optional[OpCounter] = None,
    with_support: bool = True,
) -> ShortcutGraph:
    """Step 2 of :func:`ch_indexing` on a structure already built: the
    weights, supports and witnesses of *graph*'s edges, which must all be
    shortcuts of *st*.  A directed *graph* (a
    :class:`~repro.directed.graph.DiRoadNetwork`, which lists ``arcs()``)
    gives the ``D = 2`` store of its arcs.

    The structure is weight independent, so a rebuild after weight
    updates (:meth:`repro.core.dynamic.DynamicCH.rebuild`, which
    :class:`~repro.directed.dynamic.DynamicDiCH` inherits) passes the
    index's own structure and skips the elimination; the result, op
    counts included, equals a fresh build in *ordering*.
    """
    directed = hasattr(graph, "arcs")
    tail, head, w = edge_columns(graph.arcs() if directed else graph.edges())
    rows = 2 if directed else 1
    return _weigh(ordering, st, rows, tail, head, w, counter, with_support)


def _weigh(
    ordering: Ordering,
    st: ShortcutStructure,
    rows: int,
    tail: np.ndarray,
    head: np.ndarray,
    w: np.ndarray,
    counter: Optional[OpCounter],
    with_support: bool,
) -> ShortcutGraph:
    """:func:`weigh_structure` of the edges ``(tail[i], head[i])`` at
    weights ``w[i]`` into a ``(rows, slots)`` store: an edge of ``G``
    when *rows* is 1, the arc ``tail -> head`` when it is 2 (row ``FROM``
    when *tail* is the higher end).  The level pass of
    :mod:`repro.perf.kernels` runs over both rows: triangle ``(u; v, w)``
    offers ``TO(v, w)`` the term ``FROM(u, v) + TO(u, w)`` and
    ``FROM(v, w)`` the term ``FROM(u, w) + TO(u, v)``."""
    rank = ordering.rank
    slots = len(st.low)
    ids = held_arcs(st, rank, rows, tail, head)
    edge = np.zeros((rows, slots), dtype=bool)
    edge.reshape(-1)[ids] = True
    edge_w = np.full((rows, slots), np.inf)
    edge_w.reshape(-1)[ids] = w
    weights, terms = kernels.level_weights(st, edge_w)
    ops = resolve_counter(counter)
    if terms:
        ops.add("contract_pair", terms)
    if with_support:
        sup, via = kernels.level_supports(st, rank, edge_w, weights, witnesses=True)
        if rows == 1 and len(st.low):
            # The undirected build counts its support pass's terms as
            # the scalar Equation (<>) pass did; the directed one never
            # counted them.
            ops.add("scp_minus_inspect", terms)
    else:
        sup = np.zeros_like(weights, dtype=np.int64)
        via = np.full_like(sup, -1)
    return ShortcutGraph.from_slots(ordering, st, edge, weights, edge_w, sup, via)


def held_arcs(
    st: ShortcutStructure,
    rank: Sequence[int],
    rows: int,
    tail: np.ndarray,
    head: np.ndarray,
) -> np.ndarray:
    """The arc ids of the pairs ``(tail[i], head[i])`` in a ``(rows,
    slots)`` store over *st*: the slot of ``{tail, head}``, in row
    ``FROM`` when *rows* is 2 and *tail* is the higher end.  Raises
    :class:`IndexError_` if *st* lacks a pair, instead of naming some
    other slot (:meth:`ShortcutStructure.slots_of` assumes every pair
    exists)."""
    slots = st.slots_of(rank, tail, head)
    at = np.minimum(slots, len(st.low) - 1)
    low, high = st.low[at], st.high[at]
    if not (((low == tail) & (high == head)) | ((low == head) & (high == tail))).all():
        raise IndexError_("every edge of G must be a shortcut")
    rank_arr = np.asarray(rank, dtype=np.int64)
    return slots + (rows - 1) * len(st.low) * (rank_arr[tail] > rank_arr[head])


def eliminated_structure(
    graph: RoadNetwork, ordering: Optional[Ordering], u: np.ndarray, v: np.ndarray
) -> Tuple[Ordering, ShortcutStructure]:
    """The order (minimum degree when *ordering* is ``None``; *graph*
    must then be connected) and the shortcut structure of eliminating
    *graph*, whose edges are ``(u[i], v[i])``: those edges plus the
    fill."""
    if ordering is None:
        check_connected(graph)
    ordering, fill = eliminate(graph, ordering)
    fill_u, fill_v = np.array(fill, dtype=np.int64).reshape(-1, 2).T
    st = ShortcutStructure.from_pairs(
        ordering.rank, np.concatenate((u, fill_u)), np.concatenate((v, fill_v))
    )
    return ordering, st


def edge_columns(
    triples: Iterable[Tuple[int, int, float]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(u, v, weight)`` triples as two int64 id columns and a float64
    weight column."""
    rows = list(triples)
    ids = np.array([row[:2] for row in rows], dtype=np.int64).reshape(-1, 2)
    weights = np.array([row[2] for row in rows], dtype=np.float64)
    return ids[:, 0], ids[:, 1], weights
