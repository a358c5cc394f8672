"""IncH2H — the paper's new incremental H2H algorithms (Section 5).

``inch2h_increase`` is Algorithm 4 (IncH2H+) and ``inch2h_decrease`` is
Algorithm 5 (IncH2H-).  Theorem 5.1 proves IncH2H+ *subbounded relative
to* H2HIndexing (``O(||AFF|| log ||AFF||)``) and IncH2H- additionally
*bounded relative to* H2HIndexing (``O(|DIFF| log |DIFF|)``).

Both algorithms first update the shortcut graph with DCH (line 2) —
IncH2H belongs to the INC_H2H class of Section 3.3, which maintains
``sc(G)`` as a subtask — and then propagate through super-shortcuts:

* a priority queue processes affected super-shortcuts ``<<u, a>>`` in
  non-ascending rank of the *descendant* endpoint ``u``, so that every
  Equation (*) dependency (which always points to higher-ranked
  vertices) is final before an entry is consumed;
* the dependents of an entry ``(u, a)`` are found without scanning the
  whole index: they are exactly the entries ``(v, a)`` for
  ``v in nbr-(u)`` (lines 15-18) and ``(v, u)`` for
  ``v in nbr-(a) ∩ des(u)`` (lines 19-22), the latter enumerated as a
  contiguous range of ``nbr-(a)`` via ``first(<<u, a>>)``.

As in DCH-, the decrease pass maintains exact ``sup`` values on the fly
(the paper's "without affecting the complexity" note at the end of
Section 5.2): every changed candidate is re-evaluated exactly once with
final values — the pop order guarantees finality, and a per-seed memo
(``seed_rows``) prevents the one case where a seed evaluation and a
dependent-entry pop would apply the same candidate twice.

A ``work_log`` hook records ``(depth(u), u, cost)`` per processed entry
for the ParIncH2H scheduling simulation (Section 5.3).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ch.dch import dch_decrease, dch_increase
from repro.graph.graph import WeightUpdate
from repro.h2h.index import H2HIndex
from repro.obs import names
from repro.obs.trace import span
from repro.utils.counters import OpCounter, resolve_counter
from repro.utils.heap import AddressableHeap

__all__ = ["inch2h_increase", "inch2h_decrease", "ChangedSuperShortcut"]

#: A changed super-shortcut: ((descendant u, depth of ancestor a), old, new).
ChangedSuperShortcut = Tuple[Tuple[int, int], float, float]

_INF = math.inf


def _trace_h2h_boundedness(
    sp, index, delta, changed_shortcuts, changed, ops, ops_before
) -> None:
    """Attach Section 5's currencies and per-call op counts to *sp*.

    Only runs when a sink is attached; reads the index without mutating
    it (the differential test asserts bit-identical state).
    """
    from repro.core.changed import h2h_change_metrics  # circular at module level

    metrics = h2h_change_metrics(index, delta, changed_shortcuts, changed)
    current = ops.as_dict()
    call_ops = {
        channel: count - ops_before.get(channel, 0)
        for channel, count in current.items()
        if count - ops_before.get(channel, 0)
    }
    sp.set(
        delta=delta,
        changed_shortcuts=len(changed_shortcuts),
        changed=len(changed),
        aff_norm=metrics.aff_norm,
        diff=metrics.diff,
        ops=call_ops,
        ops_total=sum(call_ops.values()),
    )


def _ancestor_scan_increase(index, changed_shortcuts, queue, ops) -> None:
    """Lines 3-12 of Algorithm 4: per changed shortcut <u, v>, test every
    super-shortcut <<u, a>> for support loss using *original* weights.

    The per-ancestor candidate vector is evaluated with the vectorized
    Equation (*) kernel; the op count is unchanged (one ``anc_scan`` per
    ancestor), only the interpreter overhead moves into numpy.
    """
    rank = index.sc.ordering.rank
    depth = index.tree.depth
    dis = index.dis
    sup = index.sup
    for (a_end, b_end), old_w, _new_w in changed_shortcuts:
        u, v = (a_end, b_end) if rank[a_end] < rank[b_end] else (b_end, a_end)
        du = int(depth[u])
        ops.add("anc_scan", du)
        if du == 0 or math.isinf(old_w):
            continue
        tmp = index.candidate_row(u, v, old_w)
        hits = np.nonzero((tmp == dis[u, :du]) & ~np.isinf(tmp))[0]
        for da in hits:
            da = int(da)
            sup[u, da] -= 1
            if sup[u, da] == 0:
                queue.push((u, da), (-rank[u], da))
                ops.add("queue_push")


def inch2h_increase(
    index: H2HIndex,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
    work_log: Optional[list] = None,
) -> List[ChangedSuperShortcut]:
    """IncH2H+ (Algorithm 4): apply weight *increases* to the H2H index.

    Parameters
    ----------
    index:
        The H2H index (including its shortcut graph); mutated in place.
    updates:
        ``((u, v), new_weight)`` pairs, each >= the current weight.
    counter:
        Optional instrumentation; channels include ``anc_scan``,
        ``down_inspect``, ``desc_inspect``, ``star_term``, ``queue_*``.
    work_log:
        Optional list; receives ``(depth(u), u, cost)`` per processed
        super-shortcut for the ParIncH2H simulation.

    Returns
    -------
    list of ((u, depth_a), old_value, new_value)
        The super-shortcuts whose distance value changed (AFF_3).
    """
    with span(names.SPAN_INCH2H_INCREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        # Line 2: update sc(G); C = shortcuts changed, with original weights.
        changed_shortcuts = dch_increase(index.sc, updates, counter)

        rank = index.sc.ordering.rank
        depth = index.tree.depth
        tree = index.tree
        sc = index.sc
        dis = index.dis
        sup = index.sup
        queue: AddressableHeap[Tuple[int, int]] = AddressableHeap()

        with span(names.SPAN_INCH2H_INCREASE_SEED, delta=len(updates)):
            _ancestor_scan_increase(index, changed_shortcuts, queue, ops)

        changed: List[ChangedSuperShortcut] = []
        # Lines 13-23: process in non-ascending rank of the descendant u.
        #
        # Entries of the same vertex pop consecutively — the priority is
        # (-rank(u), depth) and every push targets a strictly lower-ranked
        # (deeper) vertex — and they are mutually independent: the
        # dependent scans read only rows of deeper vertices, the Equation
        # (*) recompute only rows of ancestors.  Popping the whole depth
        # group of a vertex at once therefore lets the vectorized kernels
        # handle it in one pass, bit-identical to one entry at a time.
        adj = sc._adj
        with span(names.SPAN_INCH2H_INCREASE_PROPAGATE) as sp_prop:
            while queue:
                (u, da), _ = queue.pop()
                ops.add("queue_pop")
                das = [da]
                while True:
                    head = queue.peek()
                    if head is None or head[0][0] != u:
                        break
                    queue.pop()
                    ops.add("queue_pop")
                    das.append(head[0][1])
                du = int(depth[u])
                up_count = len(sc.upward(u))
                if len(das) == 1:
                    # Scalar body: a one-entry group gains nothing from
                    # numpy gathers (the common case for sparse batches).
                    a = int(tree.anc[u][da])
                    old_val = float(dis[u, da])
                    cost = up_count
                    if not math.isinf(old_val):
                        dis_col = dis[:, da]
                        # Lines 15-18: entries (v, a) for downward neighbors v
                        # of u.  Infinite shortcut legs (deleted roads) support
                        # nothing, so an inf == inf match must not decrement
                        # (dis inf => sup 0).  The adjacency is symmetric
                        # (mirror entries / one shared slot), so the fixed
                        # endpoint's row is hoisted out of the loop.
                        row_u = adj[u]
                        for v in sc.downward(u):
                            cost += 1
                            candidate = row_u[v] + old_val
                            if candidate != _INF and candidate == dis_col[v]:
                                sup[v, da] -= 1
                                if sup[v, da] == 0:
                                    queue.push((v, da), (-rank[v], da))
                                    ops.add("queue_push")
                        dis_col_u = dis[:, du]
                        row_a = adj[a]
                        # Lines 19-22: entries (v, u) for v in nbr-(a) ∩ des(u).
                        for v in tree.down_in_descendants(a, u):
                            cost += 1
                            candidate = row_a[v] + old_val
                            if candidate != _INF and candidate == dis_col_u[v]:
                                sup[v, du] -= 1
                                if sup[v, du] == 0:
                                    queue.push((v, du), (-rank[v], du))
                                    ops.add("queue_push")
                    ops.add("dependent_inspect", cost - up_count)
                    # Line 23: recompute from Equation (*).
                    new_val = index.recompute_entry(u, da, ops)
                    if new_val != old_val:
                        changed.append(((u, da), old_val, new_val))
                    if work_log is not None:
                        work_log.append((du, u, cost))
                    continue
                das_arr = np.asarray(das, dtype=np.intp)
                old_vals = dis[u, das_arr].copy()
                costs = [up_count] * len(das)
                act = np.nonzero(~np.isinf(old_vals))[0]
                if act.size:
                    sub = das_arr[act]
                    vals = old_vals[act]
                    down = sc.downward(u)
                    row_u = adj[u]
                    # Lines 15-18 for the whole group: one gather per
                    # downward neighbor instead of one per (neighbor, depth).
                    for v in down:
                        cand = row_u[v] + vals
                        hits = np.nonzero((cand == dis[v, sub]) & ~np.isinf(cand))[0]
                        for j in hits:
                            td = int(sub[j])
                            sup[v, td] -= 1
                            if sup[v, td] == 0:
                                queue.push((v, td), (-rank[v], td))
                                ops.add("queue_push")
                    dis_col_u = dis[:, du]
                    dep_total = len(down) * int(act.size)
                    # Lines 19-22 stay per depth: each depth has its own
                    # ancestor a, hence its own nbr-(a) ∩ des(u) range.
                    for i in act:
                        da_i = int(das_arr[i])
                        val = float(old_vals[i])
                        a = int(tree.anc[u][da_i])
                        row_a = adj[a]
                        extra = 0
                        for v in tree.down_in_descendants(a, u):
                            extra += 1
                            candidate = row_a[v] + val
                            if candidate != _INF and candidate == dis_col_u[v]:
                                sup[v, du] -= 1
                                if sup[v, du] == 0:
                                    queue.push((v, du), (-rank[v], du))
                                    ops.add("queue_push")
                        costs[i] += len(down) + extra
                        dep_total += extra
                    ops.add("dependent_inspect", dep_total)
                # Line 23, batched: one Equation (*) candidate block covers
                # the group (same weight + sd additions, exact column min).
                new_vals = index.recompute_entries(u, das_arr, ops)
                for i, da_i in enumerate(das):
                    if new_vals[i] != old_vals[i]:
                        changed.append(
                            ((u, da_i), float(old_vals[i]), float(new_vals[i]))
                        )
                    if work_log is not None:
                        work_log.append((du, u, costs[i]))
            sp_prop.set(changed=len(changed))
        if sp.active:
            _trace_h2h_boundedness(
                sp, index, len(updates), changed_shortcuts, changed, ops, ops_before
            )
    return changed


def inch2h_decrease(
    index: H2HIndex,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
    work_log: Optional[list] = None,
) -> List[ChangedSuperShortcut]:
    """IncH2H- (Algorithm 5): apply weight *decreases* to the H2H index.

    Mirrors :func:`inch2h_increase`; relaxes instead of recomputing and
    keeps every support counter exact on the fly.

    Returns
    -------
    list of ((u, depth_a), old_value, new_value)
        The super-shortcuts whose distance value changed (AFF_3).
    """
    with span(names.SPAN_INCH2H_DECREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        # Line 2: update sc(G); C = shortcuts changed, with final weights.
        changed_shortcuts = dch_decrease(index.sc, updates, counter)
        changed = _inch2h_decrease_propagate(
            index, updates, changed_shortcuts, ops, work_log
        )
        if sp.active:
            _trace_h2h_boundedness(
                sp, index, len(updates), changed_shortcuts, changed, ops, ops_before
            )
    return changed


def _decrease_seed_scan(index, changed_shortcuts, queue, original, ops) -> dict:
    """Lines 3-12 of Algorithm 5: seed relaxations from the changed
    shortcuts.  Supports are maintained exactly on the fly: every seed
    candidate strictly decreased (its shortcut changed), so a tie means
    one new supporting term and an improvement resets the support to
    that term alone; any stale tie recorded against a not-yet-final sd
    value is erased later by the relaxation that finalizes the entry
    (which resets support).

    Returns ``seed_rows``, a ``(u, v) -> candidate row`` memo: the pop
    loops use it to tell whether a seed already applied a candidate at
    its final value (the candidate's sd entry may have been finalized by
    an earlier seed) and must not apply it twice.
    """
    rank = index.sc.ordering.rank
    depth = index.tree.depth
    dis = index.dis
    sup = index.sup
    seed_rows: dict = {}
    for (a_end, b_end), _old_w, new_w in changed_shortcuts:
        u, v = (a_end, b_end) if rank[a_end] < rank[b_end] else (b_end, a_end)
        du = int(depth[u])
        ops.add("anc_scan", du)
        if du == 0:
            continue
        tmp = index.candidate_row(u, v, new_w)
        seed_rows[(u, v)] = tmp
        row = dis[u, :du]
        better = np.nonzero(tmp < row)[0]
        ties = np.nonzero((tmp == row) & ~np.isinf(tmp))[0]
        if len(ties):
            sup[u, ties] += 1
        for da in better:
            da = int(da)
            original.setdefault((u, da), float(dis[u, da]))
            dis[u, da] = tmp[da]
            sup[u, da] = 1
            if (u, da) not in queue:
                queue.push((u, da), (-rank[u], da))
                ops.add("queue_push")
    return seed_rows


def _inch2h_decrease_propagate(
    index: H2HIndex,
    updates: Sequence[WeightUpdate],
    changed_shortcuts,
    ops: OpCounter,
    work_log: Optional[list],
) -> List[ChangedSuperShortcut]:
    """Lines 3-22 of Algorithm 5 (split out so the tracing wrapper in
    :func:`inch2h_decrease` stays flat)."""
    rank = index.sc.ordering.rank
    depth = index.tree.depth
    tree = index.tree
    sc = index.sc
    dis = index.dis
    queue: AddressableHeap[Tuple[int, int]] = AddressableHeap()
    original: dict = {}
    sup = index.sup

    with span(names.SPAN_INCH2H_DECREASE_SEED, delta=len(updates)):
        seed_rows = _decrease_seed_scan(
            index, changed_shortcuts, queue, original, ops
        )

    # Lines 13-22: propagate relaxations downward.  A popped entry is
    # final (its dependencies all rank higher and popped first), so each
    # dependent candidate is evaluated here exactly once with final
    # values: improvements reset the dependent's support, ties add one.
    # A popped group's depth entries are independent exactly as in the
    # increase direction: loop 1 writes column da < depth(u), loop 2
    # column depth(u), never a row of u itself, so grouping the pops and
    # vectorizing loop 1 across the depth slice is bit-identical to the
    # one-entry-at-a-time order (distinct targets, live view reads).
    adj = sc._adj
    with span(names.SPAN_INCH2H_DECREASE_PROPAGATE):
        while queue:
            (u, da), _ = queue.pop()
            ops.add("queue_pop")
            das = [da]
            while True:
                head = queue.peek()
                if head is None or head[0][0] != u:
                    break
                queue.pop()
                ops.add("queue_pop")
                das.append(head[0][1])
            du = int(depth[u])
            if len(das) == 1:
                # Scalar body (one-entry groups dominate sparse batches).
                a = int(tree.anc[u][da])
                val = float(dis[u, da])
                cost = 0
                if not math.isinf(val):
                    dis_col = dis[:, da]
                    row_u = adj[u]  # symmetric rows: adj[v][u] == adj[u][v]
                    for v in sc.downward(u):
                        cost += 1
                        candidate = row_u[v] + val
                        seed_row = seed_rows.get((v, u))
                        if seed_row is not None and seed_row[da] == candidate:
                            continue  # the seed already applied this candidate
                        current = dis_col[v]
                        if candidate < current:
                            original.setdefault((v, da), float(current))
                            dis_col[v] = candidate
                            sup[v, da] = 1
                            if (v, da) not in queue:
                                queue.push((v, da), (-rank[v], da))
                                ops.add("queue_push")
                        elif candidate == current and candidate != _INF:
                            sup[v, da] += 1
                    dis_col_u = dis[:, du]
                    row_a = adj[a]
                    for v in tree.down_in_descendants(a, u):
                        cost += 1
                        candidate = row_a[v] + val
                        seed_row = seed_rows.get((v, a))
                        if seed_row is not None and seed_row[du] == candidate:
                            continue  # the seed already applied this candidate
                        current = dis_col_u[v]
                        if candidate < current:
                            original.setdefault((v, du), float(current))
                            dis_col_u[v] = candidate
                            sup[v, du] = 1
                            if (v, du) not in queue:
                                queue.push((v, du), (-rank[v], du))
                                ops.add("queue_push")
                        elif candidate == current and candidate != _INF:
                            sup[v, du] += 1
                ops.add("dependent_inspect", cost)
                if work_log is not None:
                    work_log.append((du, u, cost))
                continue
            das_arr = np.asarray(das, dtype=np.intp)
            group_vals = dis[u, das_arr].copy()
            costs = [0] * len(das)
            act = np.nonzero(~np.isinf(group_vals))[0]
            if act.size:
                sub = das_arr[act]
                vals = group_vals[act]
                down = sc.downward(u)
                row_u = adj[u]
                # Lines 15-18 for the whole group, one gather per neighbor.
                for v in down:
                    cand = row_u[v] + vals
                    seed_row = seed_rows.get((v, u))
                    if seed_row is None:
                        applicable = np.ones(len(sub), dtype=bool)
                    else:
                        applicable = seed_row[sub] != cand
                    current = dis[v, sub]
                    improve = np.nonzero(applicable & (cand < current))[0]
                    ties = np.nonzero(
                        applicable & (cand == current) & ~np.isinf(cand)
                    )[0]
                    for j in improve:
                        td = int(sub[j])
                        original.setdefault((v, td), float(dis[v, td]))
                        dis[v, td] = cand[j]
                        sup[v, td] = 1
                        if (v, td) not in queue:
                            queue.push((v, td), (-rank[v], td))
                            ops.add("queue_push")
                    if len(ties):
                        sup[v, sub[ties]] += 1
                dis_col_u = dis[:, du]
                dep_total = len(down) * int(act.size)
                # Lines 19-22 per depth (each has its own ancestor range).
                for i in act:
                    da_i = int(das_arr[i])
                    val = float(group_vals[i])
                    a = int(tree.anc[u][da_i])
                    row_a = adj[a]
                    extra = 0
                    for v in tree.down_in_descendants(a, u):
                        extra += 1
                        candidate = row_a[v] + val
                        seed_row = seed_rows.get((v, a))
                        if seed_row is not None and seed_row[du] == candidate:
                            continue  # the seed already applied this candidate
                        current = dis_col_u[v]
                        if candidate < current:
                            original.setdefault((v, du), float(current))
                            dis_col_u[v] = candidate
                            sup[v, du] = 1
                            if (v, du) not in queue:
                                queue.push((v, du), (-rank[v], du))
                                ops.add("queue_push")
                        elif candidate == current and candidate != _INF:
                            sup[v, du] += 1
                    costs[i] += len(down) + extra
                    dep_total += extra
                ops.add("dependent_inspect", dep_total)
            if work_log is not None:
                for i in range(len(das)):
                    work_log.append((du, u, costs[i]))

    return [
        (key, old, float(dis[key[0], key[1]]))
        for key, old in original.items()
        if dis[key[0], key[1]] != old
    ]
