"""Edge insertion and deletion for CH (Section 7 of the paper).

Edge updates are rare in road networks (construction/destruction), so
the paper handles them asymmetrically:

* **deletion** simply raises the edge weight to infinity and reuses the
  weight-increase machinery (DCH+); the shortcut *structure* is kept,
  only weights change;
* **insertion** may genuinely change the structure: a new edge is a new
  valley path, and its presence can induce new valley paths between
  higher-ranked vertices.  Keeping the contraction order fixed, the new
  shortcut set is the fill closure of the old one plus the new edge:
  whenever a vertex ``a`` has two higher-ranked shortcut neighbors
  ``b, c``, the shortcut ``<b, c>`` must exist.  The closure is computed
  with a worklist in ascending rank of the lower endpoint (each new
  shortcut can only create shortcuts with higher lower endpoints, so one
  monotone pass suffices), after which weights are restored by Equation
  (<>) recomputations plus a DCH- style downstream relaxation.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import List, Optional, Tuple

from repro.errors import UpdateError
from repro.ch.dch import ChangedShortcut, dch_increase
from repro.ch.shortcut_graph import Shortcut, ShortcutGraph
from repro.utils.counters import OpCounter, resolve_counter
from repro.utils.heap import AddressableHeap

__all__ = ["insert_edge", "delete_edge"]


def delete_edge(
    index: ShortcutGraph,
    u: int,
    v: int,
    counter: Optional[OpCounter] = None,
) -> List[ChangedShortcut]:
    """Delete edge ``(u, v)``: weight becomes infinite (Section 7).

    The edge stays registered in the index with weight ``inf`` so that a
    later re-insertion is a plain weight decrease.  Returns the changed
    shortcuts, exactly like :func:`repro.ch.dch.dch_increase`.
    """
    if not index.is_graph_edge(u, v):
        raise UpdateError(f"({u}, {v}) is not an edge of G")
    return dch_increase(index, [((u, v), math.inf)], counter)


def _register_shortcut(index: ShortcutGraph, a: int, b: int) -> None:
    """Add shortcut ``<a, b>`` to the frozen structure with weight inf."""
    rank = index.ordering.rank
    index._adj[a][b] = math.inf
    index._adj[b][a] = math.inf
    low, high = (a, b) if rank[a] < rank[b] else (b, a)
    insort(index._up[low], high, key=rank.__getitem__)
    insort(index._down[high], low, key=rank.__getitem__)
    index._sup[index.key(a, b)] = 0
    index._via[index.key(a, b)] = None
    index._m_shortcuts += 1


def insert_edge(
    index: ShortcutGraph,
    u: int,
    v: int,
    weight: float,
    counter: Optional[OpCounter] = None,
) -> Tuple[List[Shortcut], List[ChangedShortcut]]:
    """Insert edge ``(u, v)`` with *weight* into the CH index (Section 7).

    The contraction order is kept fixed (re-ordering would rebuild the
    whole index; the paper's approach, following [39], accepts a mildly
    sub-optimal order instead).

    Returns
    -------
    (new_shortcuts, changed):
        *new_shortcuts* lists the shortcuts created by the structural
        closure (including ``<u, v>`` itself when it did not exist);
        *changed* lists pre-existing shortcuts whose weight changed.

    Raises
    ------
    UpdateError
        If the edge already exists (use a weight update instead) or the
        weight is invalid.
    """
    if index.is_graph_edge(u, v):
        raise UpdateError(f"({u}, {v}) already exists; use a weight update")
    if u == v:
        raise UpdateError("self-loops are not allowed")
    if weight < 0 or math.isnan(weight):
        raise UpdateError(f"invalid weight {weight}")
    ops = resolve_counter(counter)
    rank = index.ordering.rank

    index._edge_w[index.key(u, v)] = weight

    # ------------------------------------------------------------------
    # Phase 1: structural closure (new shortcuts), monotone worklist.
    # ------------------------------------------------------------------
    new_shortcuts: List[Shortcut] = []
    worklist: AddressableHeap[Shortcut] = AddressableHeap()

    def priority(key: Shortcut) -> Tuple[int, int]:
        a, b = key
        return (min(rank[a], rank[b]), max(rank[a], rank[b]))

    if not index.has_shortcut(u, v):
        key = index.key(u, v)
        _register_shortcut(index, u, v)
        new_shortcuts.append(key)
        worklist.push(key, priority(key))

    while worklist:
        (a, b), _ = worklist.pop()
        ops.add("closure_pop")
        low = index.lower_endpoint(a, b)
        high = b if low == a else a
        for c in list(index.upward(low)):
            if c == high or index.has_shortcut(high, c):
                continue
            ops.add("closure_new")
            key = index.key(high, c)
            _register_shortcut(index, high, c)
            new_shortcuts.append(key)
            worklist.push(key, priority(key))

    # ------------------------------------------------------------------
    # Phase 2: weights.  New shortcuts are evaluated bottom-up, then a
    # decrease-style relaxation pushes improvements into existing ones.
    # ------------------------------------------------------------------
    new_shortcuts.sort(key=priority)
    for a, b in new_shortcuts:
        index.recompute(a, b, ops)

    queue: AddressableHeap[Shortcut] = AddressableHeap()
    original: dict = {}
    touched = set(new_shortcuts)
    seeds = list(new_shortcuts)
    existing_uv = index.key(u, v)
    if existing_uv not in touched:
        # <u, v> already existed as a shortcut: the new edge may lower it.
        touched.add(existing_uv)
        if weight < index.weight(u, v):
            original[existing_uv] = index.weight(u, v)
            index.set_weight(u, v, weight)
        seeds.append(existing_uv)
    for key in seeds:
        queue.push(key, priority(key))

    while queue:
        key, _ = queue.pop()
        ops.add("queue_pop")
        a, b = key
        weight_e = index.weight(a, b)
        if math.isinf(weight_e):
            continue
        for x, w_mid, y in index.scp_plus(a, b):
            ops.add("scp_plus_inspect")
            partner = index.key(w_mid, y)
            touched.add(partner)
            candidate = weight_e + index.weight(x, w_mid)
            if candidate < index.weight(*partner):
                original.setdefault(partner, index.weight(*partner))
                index.set_weight(*partner, candidate)
                if partner not in queue:
                    queue.push(partner, priority(partner))

    # Restore exact supports/witnesses on everything we looked at.
    fixup = OpCounter()
    for a, b in touched:
        result = index.evaluate_equation(a, b, fixup)
        index.set_support(a, b, result.support)
        index.set_via(a, b, result.via)
    ops.add("support_fixup", fixup.total())

    changed = [
        (key, old, index.weight(*key))
        for key, old in original.items()
        if index.weight(*key) != old
    ]
    return new_shortcuts, changed
