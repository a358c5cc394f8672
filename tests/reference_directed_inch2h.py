"""The queue-driven scalar directed IncH2H± — the test reference of the
directed level path.

Algorithms 4 and 5 per direction, as the directed index ran them before
it moved onto the shared level-synchronous engine of
:mod:`repro.h2h.inch2h`: one addressable priority queue of entries
``(direction, u, da)`` popped in non-ascending rank of ``u``, every
dependent visited in a Python loop over ``sc.weight``, line 23 recomputed
with the scalar :meth:`H2HIndex.evaluate_entry`.  It shares no
code with the level path past directed DCH and the Equation (*) seed
rows (:func:`repro.perf.kernels.candidate_row`), so
``tests/test_directed_inch2h_levels.py`` can hold the level path to it:
bit-equal labels, supports, slot weights and shortcut state, the same
changed multiset and the same op counts.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ch.dch import (
    dch_decrease,
    dch_increase,
)
from repro.graph.graph import WeightUpdate
from repro.perf import kernels
from repro.utils.counters import OpCounter, resolve_counter
from repro.utils.heap import AddressableHeap

#: Direction tags for super-shortcut entries.
TO, FROM = 0, 1

#: A queue entry: (direction, descendant vertex, ancestor depth).
Entry = Tuple[int, int, int]


def recompute_entry(
    index, direction: int, u: int, da: int,
    counter: Optional[OpCounter] = None,
) -> float:
    """Recompute and store one entry from the directed Equation (*)."""
    value, support = index.evaluate_entry(u, da, counter, direction)
    index.dis[direction][u, da] = value
    index.sup[direction][u, da] = support
    return value


def _seed_candidates(index, arc, weight):
    """Yield ``(direction, lower_endpoint)`` affected by a changed arc.

    An arc ``l -> h`` (skeleton lower endpoint ``l``) feeds the TO
    entries of ``l``; an arc ``h -> l`` feeds the FROM entries of ``l``.
    """
    u, v = arc
    low = index.sc.lower_endpoint(u, v)
    if u == low:
        yield TO, low, v  # candidates phi(l -> h) + sd(h -> a)
    else:
        yield FROM, low, u  # candidates sd(a -> h) + phi(h -> l)


def reference_increase(
    index,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> List[Tuple[Entry, float, float]]:
    """Directed IncH2H+, one queue entry at a time."""
    ops = resolve_counter(counter)
    index.drop_log()  # writes the labels directly, unlogged
    changed_arcs = dch_increase(index.sc, updates, counter)

    sc = index.sc
    tree = index.tree
    rank = sc.ordering.rank
    depth = tree.depth
    weight = sc.weight
    queue: AddressableHeap[Entry] = AddressableHeap()

    # Seeds: per changed arc, test every entry of the lower endpoint —
    # the whole ancestor slice at once with the directed Equation (*)
    # kernel (same weight + sd additions, bit-identical hit test).
    for arc, old_w, _new_w in changed_arcs:
        if math.isinf(old_w):
            continue
        for direction, u, via in _seed_candidates(index, arc, old_w):
            du = int(depth[u])
            ops.add("anc_scan", du)
            if du == 0:
                continue
            dis_dir = index.dis[direction]
            sup_dir = index.sup[direction]
            tmp = kernels.candidate_row(index, direction, u, via, old_w)
            hits = np.nonzero((tmp == dis_dir[u, :du]) & ~np.isinf(tmp))[0]
            for da in hits:
                da = int(da)
                sup_dir[u, da] -= 1
                if sup_dir[u, da] == 0:
                    queue.push((direction, u, da), (-rank[u], direction, da))
                    ops.add("queue_push")

    changed: List[Tuple[Entry, float, float]] = []
    while queue:
        (direction, u, da), _ = queue.pop()
        ops.add("queue_pop")
        a = int(tree.anc[u][da])
        du = int(depth[u])
        dis_dir = index.dis[direction]
        old_val = float(dis_dir[u, da])
        if not math.isinf(old_val):
            sup_dir = index.sup[direction]
            # Loop 1: same-direction entries of downward neighbors.
            # (Infinite legs — one-way streets — support nothing.)
            for x in sc.downward(u):
                ops.add("dependent_inspect")
                leg = weight(x, u) if direction == TO else weight(u, x)
                if not math.isinf(leg) and leg + old_val == dis_dir[x, da]:
                    sup_dir[x, da] -= 1
                    if sup_dir[x, da] == 0:
                        queue.push((direction, x, da), (-rank[x], direction, da))
                        ops.add("queue_push")
            # Loop 2: entries (x, depth(u)) of the other matrix, for x in
            # nbr-(a) ∩ des(u).  The one rule: entry (d, u, da) feeds
            # loop 1 in matrix d through phi row d and loop 2 in matrix
            # other(d) through phi row other(d); row TO is phi(low -> high)
            # and row FROM phi(high -> low).  Here a is the high end of
            # <x, a>, so
            #   TO   sd(u -> a) feeds FROM sd(u -> x) = sd(u -> a) + phi(a -> x)
            #   FROM sd(a -> u) feeds TO   sd(x -> u) = phi(x -> a) + sd(a -> u)
            other = 1 - direction
            dis_other = index.dis[other]
            sup_other = index.sup[other]
            for x in tree.down_in_descendants(a, u):
                ops.add("dependent_inspect")
                leg = weight(a, x) if direction == TO else weight(x, a)
                if not math.isinf(leg) and leg + old_val == dis_other[x, du]:
                    sup_other[x, du] -= 1
                    if sup_other[x, du] == 0:
                        queue.push((other, x, du), (-rank[x], other, du))
                        ops.add("queue_push")
        new_val = recompute_entry(index, direction, u, da, ops)
        if new_val != old_val:
            changed.append(((direction, u, da), old_val, new_val))
    return changed


def reference_decrease(
    index,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> List[Tuple[Entry, float, float]]:
    """Directed IncH2H-, one queue entry at a time, with the
    ``(direction, u, via)`` seed memo."""
    ops = resolve_counter(counter)
    index.drop_log()  # writes the labels directly, unlogged
    changed_arcs = dch_decrease(index.sc, updates, counter)

    sc = index.sc
    tree = index.tree
    rank = sc.ordering.rank
    depth = tree.depth
    weight = sc.weight
    queue: AddressableHeap[Entry] = AddressableHeap()
    original: dict = {}
    # Seed memo: (direction, u, via) -> candidate array (du long), to
    # dedupe against later pop-loop evaluations at identical values.
    seed_rows: Dict[Tuple[int, int, int], np.ndarray] = {}

    for arc, _old_w, new_w in changed_arcs:
        for direction, u, via in _seed_candidates(index, arc, new_w):
            du = int(depth[u])
            if du == 0:
                continue
            ops.add("anc_scan", du)
            dis_dir = index.dis[direction]
            sup_dir = index.sup[direction]
            # Whole ancestor slice at once (directed Equation (*) kernel);
            # ties and improvements target distinct depths, so applying
            # them from one pre-write gather matches the per-depth order.
            row = kernels.candidate_row(index, direction, u, via, new_w)
            seed_rows[(direction, u, via)] = row
            current_row = dis_dir[u, :du]
            better = np.nonzero(row < current_row)[0]
            ties = np.nonzero((row == current_row) & ~np.isinf(row))[0]
            if len(ties):
                sup_dir[u, ties] += 1
            for da in better:
                da = int(da)
                original.setdefault((direction, u, da), float(dis_dir[u, da]))
                dis_dir[u, da] = row[da]
                sup_dir[u, da] = 1
                if (direction, u, da) not in queue:
                    queue.push((direction, u, da),
                               (-rank[u], direction, da))
                    ops.add("queue_push")

    while queue:
        (direction, u, da), _ = queue.pop()
        ops.add("queue_pop")
        a = int(tree.anc[u][da])
        du = int(depth[u])
        dis_dir = index.dis[direction]
        val = float(dis_dir[u, da])
        if math.isinf(val):
            continue
        sup_dir = index.sup[direction]
        for x in sc.downward(u):
            ops.add("dependent_inspect")
            leg = weight(x, u) if direction == TO else weight(u, x)
            candidate = leg + val
            seed_row = seed_rows.get((direction, x, u))
            if seed_row is not None and seed_row[da] == candidate:
                continue
            current = dis_dir[x, da]
            if candidate < current:
                original.setdefault((direction, x, da), float(current))
                dis_dir[x, da] = candidate
                sup_dir[x, da] = 1
                if (direction, x, da) not in queue:
                    queue.push((direction, x, da), (-rank[x], direction, da))
                    ops.add("queue_push")
            elif candidate == current and not math.isinf(candidate):
                sup_dir[x, da] += 1
        other = 1 - direction
        dis_other = index.dis[other]
        sup_other = index.sup[other]
        for x in tree.down_in_descendants(a, u):
            ops.add("dependent_inspect")
            leg = weight(a, x) if direction == TO else weight(x, a)
            candidate = leg + val
            seed_row = seed_rows.get((other, x, a))
            if seed_row is not None and seed_row[du] == candidate:
                continue
            current = dis_other[x, du]
            if candidate < current:
                original.setdefault((other, x, du), float(current))
                dis_other[x, du] = candidate
                sup_other[x, du] = 1
                if (other, x, du) not in queue:
                    queue.push((other, x, du), (-rank[x], other, du))
                    ops.add("queue_push")
            elif candidate == current and not math.isinf(candidate):
                sup_other[x, du] += 1

    return [
        (entry, old, float(index.dis[entry[0]][entry[1], entry[2]]))
        for entry, old in original.items()
        if index.dis[entry[0]][entry[1], entry[2]] != old
    ]
