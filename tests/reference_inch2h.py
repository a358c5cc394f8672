"""The queue-driven scalar IncH2H± — the test reference of the level path.

This is Algorithms 4 and 5 as printed: one addressable priority queue of
super-shortcuts ``<<u, a>>`` popped one entry at a time in non-ascending
rank of ``u``, every dependent visited in a Python loop, line 23
recomputed with the scalar :meth:`H2HIndex.recompute_entry`.  It shares
no code with :mod:`repro.h2h.inch2h` past DCH and the Equation (*)
seed rows, so ``tests/test_inch2h_levels.py`` can hold the
level-synchronous implementation to it: bit-equal ``dis``/``sup`` and
shortcut state, the same changed multiset, the same op counts and the
same ``work_log`` multiset.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ch.dch import dch_decrease, dch_increase
from repro.utils.counters import OpCounter, resolve_counter
from repro.utils.heap import AddressableHeap

_INF = math.inf


def _lower_first(rank, a_end, b_end):
    return (a_end, b_end) if rank[a_end] < rank[b_end] else (b_end, a_end)


def reference_increase(
    index,
    updates: Sequence,
    counter: Optional[OpCounter] = None,
    work_log: Optional[list] = None,
) -> List[Tuple[Tuple[int, int], float, float]]:
    """IncH2H+ (Algorithm 4), one queue entry at a time."""
    ops = resolve_counter(counter)
    index.drop_log()  # writes the labels directly, unlogged
    changed_shortcuts = dch_increase(index.sc, updates, counter)
    sc, tree = index.sc, index.tree
    rank, depth = sc.ordering.rank, tree.depth
    dis, sup = index.dis, index.sup
    queue: AddressableHeap = AddressableHeap()

    def decrement(v, d):
        sup[v, d] -= 1
        if sup[v, d] == 0:
            queue.push((v, d), (-rank[v], d))
            ops.add("queue_push")

    # Lines 3-12: support loss under the *original* weights.
    for (a_end, b_end), old_w, _new_w in changed_shortcuts:
        u, v = _lower_first(rank, a_end, b_end)
        du = int(depth[u])
        ops.add("anc_scan", du)
        if du == 0 or math.isinf(old_w):
            continue
        tmp = index.candidate_row(u, v, old_w)
        for da in np.nonzero((tmp == dis[u, :du]) & ~np.isinf(tmp))[0]:
            decrement(u, int(da))

    changed = []
    while queue:
        (u, da), _ = queue.pop()
        ops.add("queue_pop")
        du = int(depth[u])
        a = int(tree.anc[u][da])
        old_val = float(dis[u, da])
        inspected = 0
        if not math.isinf(old_val):
            # Lines 15-18: entries (v, a) for v in nbr-(u).
            for v in sc.downward(u):
                inspected += 1
                candidate = sc.weight(u, v) + old_val
                if candidate != _INF and candidate == dis[v, da]:
                    decrement(v, da)
            # Lines 19-22: entries (v, u) for v in nbr-(a) ∩ des(u).
            for v in tree.down_in_descendants(a, u):
                inspected += 1
                candidate = sc.weight(a, v) + old_val
                if candidate != _INF and candidate == dis[v, du]:
                    decrement(v, du)
        ops.add("dependent_inspect", inspected)
        # Line 23.
        new_val = index.recompute_entry(u, da, ops)
        if new_val != old_val:
            changed.append(((u, da), old_val, new_val))
        if work_log is not None:
            work_log.append((du, u, len(sc.upward(u)) + inspected))
    return changed


def reference_decrease(
    index,
    updates: Sequence,
    counter: Optional[OpCounter] = None,
    work_log: Optional[list] = None,
) -> List[Tuple[Tuple[int, int], float, float]]:
    """IncH2H- (Algorithm 5), one queue entry at a time, supports kept
    exact on the fly with the ``seed_rows`` skip rule."""
    ops = resolve_counter(counter)
    index.drop_log()  # writes the labels directly, unlogged
    changed_shortcuts = dch_decrease(index.sc, updates, counter)
    sc, tree = index.sc, index.tree
    rank, depth = sc.ordering.rank, tree.depth
    dis, sup = index.dis, index.sup
    queue: AddressableHeap = AddressableHeap()
    original: dict = {}
    seed_rows: dict = {}

    def improve(v, d, candidate):
        original.setdefault((v, d), float(dis[v, d]))
        dis[v, d] = candidate
        sup[v, d] = 1
        if (v, d) not in queue:
            queue.push((v, d), (-rank[v], d))
            ops.add("queue_push")

    # Lines 3-12: seed relaxations from the changed shortcuts.
    for (a_end, b_end), _old_w, new_w in changed_shortcuts:
        u, v = _lower_first(rank, a_end, b_end)
        du = int(depth[u])
        ops.add("anc_scan", du)
        if du == 0:
            continue
        tmp = index.candidate_row(u, v, new_w)
        seed_rows[(u, v)] = tmp
        for da in range(du):
            if tmp[da] < dis[u, da]:
                improve(u, da, tmp[da])
            elif tmp[da] == dis[u, da] and tmp[da] != _INF:
                sup[u, da] += 1

    def relax(v, d, candidate, via):
        seed_row = seed_rows.get((v, via))
        if seed_row is not None and seed_row[d] == candidate:
            return  # the seed already applied this candidate
        current = dis[v, d]
        if candidate < current:
            improve(v, d, candidate)
        elif candidate == current and candidate != _INF:
            sup[v, d] += 1

    # Lines 13-22.
    while queue:
        (u, da), _ = queue.pop()
        ops.add("queue_pop")
        du = int(depth[u])
        a = int(tree.anc[u][da])
        val = float(dis[u, da])
        inspected = 0
        if not math.isinf(val):
            for v in sc.downward(u):
                inspected += 1
                relax(v, da, sc.weight(u, v) + val, u)
            for v in tree.down_in_descendants(a, u):
                inspected += 1
                relax(v, du, sc.weight(a, v) + val, a)
        ops.add("dependent_inspect", inspected)
        if work_log is not None:
            work_log.append((du, u, inspected))
    return [
        (key, old, float(dis[key[0], key[1]]))
        for key, old in original.items()
        if dis[key[0], key[1]] != old
    ]
