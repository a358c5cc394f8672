"""AFF-driven cache invalidation: which (s, t) answers can an update change?

DCH returns the set of shortcuts whose weight changed (``AFF_2``,
Example 4.1).  This module turns that change list into a *sound* vertex
set ``V_aff`` such that any query pair ``(s, t)`` with ``s not in
V_aff`` and ``t not in V_aff`` provably has the same distance before
and after the update — so the query cache only evicts pairs touching
``V_aff`` instead of flushing wholesale.

Only oracles that answer by search keep a cache
(:class:`~repro.serve.server.DistanceServer`).  An H2H answer is a scan
of two labels, about the cost of a cache lookup, so H2H servers keep no
cache and never ask for a ``V_aff``.

Soundness argument
------------------
``sd(s, t)`` is the minimum weight over up-down paths in
``sc(G)`` (Section 2).  Each hop of the ascending half strictly
increases rank, so every shortcut on it has both endpoints in the
upward closure of ``s``; symmetrically for the descending half and
``t``.  That closure is a chain of the elimination tree
(``parent(v)`` = the lowest-ranked vertex of ``nbr+(v)``, H2H's
``x(v)``):

* every ``nbr+(v)`` is a clique (the structure validates it), so each
  ``w`` in ``nbr+(v)`` other than ``p = parent(v)`` lies in ``nbr+(p)``;
  by induction on rank from the top, every vertex of ``nbr+(v)`` is an
  ancestor of ``v``;
* so the upward closure of ``s`` is exactly ``s`` and its ancestors,
  ``anc*(s)``.

Take a changed shortcut ``<x, y>`` with ``r(x) < r(y)``.  If it lies on
an up-down ``s``–``t`` path, its lower endpoint ``x`` lies in
``anc*(s)`` or in ``anc*(t)``: ``s`` or ``t`` is in ``x``'s subtree, the
pre-order range ``order[pre[x] : pre[x] + size[x]]``.  The rest of
``y``'s subtree adds nothing: a vertex there that is not below ``x``
never climbs to ``x``, so the shortcut is on none of its up-down paths.
If no changed shortcut lies on an up-down path of the pair, the minimum
is unchanged.  The same holds per direction on the directed store,
whose arcs ``x -> y`` and ``y -> x`` share the skeleton's tree.

``V_aff`` is therefore the union of the lower endpoints' subtrees.  An
ancestor's pre-order position is smaller than its descendants', so the
lower endpoint of ``<u, v>`` is the one with the larger ``pre``.  This
over-approximates (a pair may be affected by the closure without its
distance actually changing) but never under-approximates, which is
the direction cache correctness needs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

__all__ = [
    "ch_affected_vertices",
    "affected_vertices",
]


def ch_affected_vertices(sc, changed_shortcuts: Sequence) -> Set[int]:
    """``V_aff`` for a CH update: the subtree of the lower endpoint of
    every changed shortcut — read as pre-order ranges of *sc*'s
    structure (the module docstring has the proof).

    *changed_shortcuts* is the DCH change list: ``((u, v), old, new)``
    triples (the paper's set ``C``).  Works for the directed skeleton
    too — :class:`DirectedShortcutGraph` lays its skeleton out in the
    same :class:`ShortcutStructure`, so the tree is the same, and the
    up-down path argument is per-direction identical.

    Subtree ranges nest or are disjoint, so after sorting the distinct
    range starts, a start inside the previous kept range is covered by
    it: the cost is ``O(|C| log |C|)`` plus the size of the answer.
    """
    st = sc.structure
    pre, size, order = st.pre, st.size, st.order
    starts = sorted({max(pre[u], pre[v]) for (u, v), _old, _new in changed_shortcuts})
    affected: Set[int] = set()
    end = 0
    for lo in starts:
        if lo >= end:
            end = lo + size[order[lo]]
            affected.update(order[lo:end])
    return affected


def affected_vertices(oracle, report) -> Optional[Set[int]]:
    """Dispatch: ``V_aff`` of one CH :class:`UpdateReport`-like object
    (undirected or directed), or ``None`` when the oracle has no shortcut
    structure (meaning: assume everything is affected and flush the
    cache — always sound)."""
    changed = getattr(report, "changed_shortcuts", None)
    if changed is None:
        changed = getattr(report, "changed_shortcut_arcs", None)
    index = getattr(oracle, "index", None)
    if changed is not None and hasattr(index, "structure"):
        return ch_affected_vertices(index, changed)
    return None
