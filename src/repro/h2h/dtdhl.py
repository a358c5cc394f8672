"""DTDHL — the prior state-of-the-art H2H maintenance baseline [51].

Section 5.4 characterizes why DTDHL is neither subbounded nor bounded
relative to H2HIndexing, and this implementation reproduces exactly
those two inefficiencies so that Exp-4 (Figures 2o-2q) shows the same
gap as the paper:

1. **DTDHL+** identifies the super-shortcuts affected by a changed
   ``<<u, a>>`` by inspecting *all* members of ``nbr-(u) ∪ nbr-(a)`` —
   it does not use the ``first(<<u, a>>)`` range trick, so it pays for
   every downward neighbor of ``a`` even when only a few are descendants
   of ``u``;
2. **DTDHL-** has no support counters: it decides whether a dependent
   changed by *recomputing its Equation (*) value from scratch*, which
   "may recalculate dis(u)[depth(a)] even for some <<u, a>> not in
   CHANGED".

DTDHL does not maintain ``sup(.)``; the support matrix of an index
maintained with DTDHL becomes stale (the experiment harness runs DTDHL
on dedicated copies, as the paper runs the authors' original code).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ch.dch import dch_decrease, dch_increase
from repro.graph.graph import WeightUpdate
from repro.h2h.index import H2HIndex
from repro.h2h.inch2h import ChangedSuperShortcut
from repro.utils.counters import OpCounter, resolve_counter
from repro.utils.heap import AddressableHeap

__all__ = ["dtdhl_increase", "dtdhl_decrease"]


def _run(
    index: H2HIndex,
    updates: Sequence[WeightUpdate],
    direction: str,
    counter: Optional[OpCounter],
) -> List[ChangedSuperShortcut]:
    """Shared engine for DTDHL+ / DTDHL-: recompute-driven propagation."""
    ops = resolve_counter(counter)
    if direction == "increase":
        changed_shortcuts = dch_increase(index.sc, updates, counter)
    else:
        changed_shortcuts = dch_decrease(index.sc, updates, counter)

    index.drop_log()  # DTDHL writes labels outside the logged engine
    rank = index.sc.ordering.rank
    depth = index.tree.depth
    tree = index.tree
    sc = index.sc
    dis = index.dis
    queue: AddressableHeap[Tuple[int, int]] = AddressableHeap()
    original: dict = {}

    def recompute_and_track(u: int, da: int) -> None:
        old = float(dis[u, da])
        ops.add("dtdhl_recompute")
        if index.recompute_entry(u, da, ops) != old:
            original.setdefault((u, da), old)
            queue.push((u, da), (-rank[u], da))
            ops.add("queue_push")

    # Seeds: recompute every super-shortcut of a changed shortcut's lower
    # endpoint (no support counters to pre-filter with).  Vectorized with
    # the same Equation (*) kernel IncH2H's seed scan uses, so the
    # baseline is not handicapped by interpreter overhead.
    for (a_end, b_end), _old_w, _new_w in changed_shortcuts:
        u = a_end if rank[a_end] < rank[b_end] else b_end
        du = int(depth[u])
        if du == 0:
            continue
        depths = np.arange(du, dtype=np.int64)
        block = index.candidate_block(u, depths)
        best = block.min(axis=0)
        finite = ~np.isinf(block)
        index.sup[u, :du] = ((block == best) & finite).sum(axis=0)
        ops.add("dtdhl_recompute", du)
        ops.add("star_term", block.size)
        for da in np.nonzero(best != dis[u, :du])[0]:
            da = int(da)
            original.setdefault((u, da), float(dis[u, da]))
            dis[u, da] = best[da]
            queue.push((u, da), (-rank[u], da))
            ops.add("queue_push")

    while queue:
        (u, da), _ = queue.pop()
        ops.add("queue_pop")
        a = int(tree.anc[u][da])
        du = int(depth[u])
        # Dependents via nbr-(u): entries (v, a).
        for v in sc.downward(u):
            ops.add("down_inspect")
            recompute_and_track(v, da)
        # Dependents via nbr-(a): DTDHL scans *all* of nbr-(a) and tests
        # descendant-ship per member instead of jumping to the range.
        fin_u, disc_u = tree.fin[u], tree.disc[u]
        for v in tree.down_by_disc[a]:
            ops.add("desc_scan")
            if v == u or not (disc_u < tree.disc[v] and tree.fin[v] < fin_u):
                continue
            recompute_and_track(v, du)

    return [
        (key, old, float(dis[key[0], key[1]]))
        for key, old in original.items()
        if dis[key[0], key[1]] != old
    ]


def dtdhl_increase(
    index: H2HIndex,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> List[ChangedSuperShortcut]:
    """DTDHL+ : weight increases via recompute-driven propagation."""
    return _run(index, updates, "increase", counter)


def dtdhl_decrease(
    index: H2HIndex,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> List[ChangedSuperShortcut]:
    """DTDHL- : weight decreases via recompute-driven propagation."""
    return _run(index, updates, "decrease", counter)
