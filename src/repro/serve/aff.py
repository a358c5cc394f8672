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
``sc(G)`` (Section 2).  Every shortcut on the ascending half has both
endpoints inside the upward closure of ``s`` (each hop strictly
increases rank), and symmetrically for ``t``.  If no changed shortcut
has an endpoint in either closure, no up-down path between the pair
changed weight, so the minimum is unchanged.  ``s``'s upward closure
meets a changed endpoint ``x`` exactly when ``s`` lies in the *downward
closure* of ``x``.  That closure is a subtree of the elimination tree
(``parent(v)`` = the lowest-ranked vertex of ``nbr+(v)``, H2H's
``x(v)``):

* every ``nbr+(v)`` is a clique (the structure validates it), so each
  ``w`` in ``nbr+(v)`` other than ``p = parent(v)`` lies in ``nbr+(p)``;
  by induction on rank from the top, every vertex of ``nbr+(v)`` is an
  ancestor of ``v``;
* so the upward closure of ``s`` is exactly ``s`` and its ancestors,
* and the downward closure of ``x`` is exactly ``x``'s subtree, the
  pre-order range ``order[pre[x] : pre[x] + size[x]]``.

``V_aff`` is the union of those ranges over the changed endpoints.
This over-approximates (a pair may be affected by the closure without
its distance actually changing) but never under-approximates, which is
the direction cache correctness needs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

__all__ = [
    "ch_affected_vertices",
    "affected_vertices",
]


def ch_affected_vertices(sc, changed_shortcuts: Sequence) -> Set[int]:
    """``V_aff`` for a CH update: the downward closure of every endpoint
    of a changed shortcut — the union of their elimination-tree subtrees,
    read as pre-order ranges of *sc*'s structure.

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
    starts = sorted({pre[x] for edge, _old, _new in changed_shortcuts for x in edge})
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
