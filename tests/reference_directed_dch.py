"""The key-based directed DCH± — the test reference of the slot path.

This is directed Algorithms 2 and 3 as the library ran them before the
slot-native rewrite of :mod:`repro.ch.dch`: an
:class:`AddressableHeap` of ``(tail, head)`` keys prioritised by
``(min rank, max rank, tail rank)`` tuples, each pop walking the
upward neighbors of the lower endpoint and reading weights, supports
and arc weights through the per-key accessors of the directed
:class:`ShortcutGraph`.  It shares only batch validation and
trace bookkeeping with the slot path, so
``tests/test_directed_dch_slots.py`` can hold
:func:`repro.ch.dch.dch_increase` and
:func:`repro.ch.dch.dch_decrease` on a directed store to it: bit-equal
``phi``, ``phi_G`` and supports in both directions, the same changed
arcs in the same order, and the same ``OpCounter`` dict.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.ch.dch import ChangedShortcut, _validate_batch, trace_call
from repro.ch.shortcut_graph import Shortcut, ShortcutGraph
from repro.graph.graph import WeightUpdate
from repro.obs import names
from repro.obs.trace import span
from repro.utils.counters import OpCounter, resolve_counter
from repro.utils.heap import AddressableHeap


def _priority(index: ShortcutGraph, arc: Shortcut) -> Tuple[int, int, int]:
    rank = index.ordering.rank
    u, v = arc
    return (min(rank[u], rank[v]), max(rank[u], rank[v]), rank[u])


def _partners(index: ShortcutGraph, arc: Shortcut):
    """Yield ``(other_leg, partner)`` for every candidate *arc* feeds.

    ``other_leg`` is the second directed shortcut in the candidate sum
    and ``partner`` the directed shortcut the candidate bounds.
    """
    u, v = arc
    low = index.lower_endpoint(u, v)
    if u == low:
        # arc = l -> h: candidate phi(w -> l) + phi(l -> h) for (w -> h).
        high = v
        for w_mid in index.upward(low):
            if w_mid != high and index.has_shortcut(high, w_mid):
                yield (w_mid, low), (w_mid, high)
    else:
        # arc = h -> l: candidate phi(h -> l) + phi(l -> w) for (h -> w).
        high = u
        for w_mid in index.upward(low):
            if w_mid != high and index.has_shortcut(high, w_mid):
                yield (low, w_mid), (high, w_mid)


def reference_directed_dch_increase(
    index: ShortcutGraph,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> List[ChangedShortcut]:
    """DCH+ over directed shortcuts; returns the changed arcs."""
    _validate_batch(index, updates, "increase")
    with span(names.SPAN_DIRECTED_DCH_INCREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        queue: AddressableHeap[Shortcut] = AddressableHeap()

        for (u, v), w in updates:
            ops.add("delta_inspect")
            old_arc = index.edge_weight(u, v)
            if w > old_arc and not math.isinf(old_arc) and (
                old_arc == index.weight(u, v)
            ):
                sup = index.support(u, v) - 1
                index.set_support(u, v, sup)
                if sup == 0:
                    queue.push((u, v), _priority(index, (u, v)))
                    ops.add("queue_push")
            index.set_edge_weight(u, v, w)

        changed: List[ChangedShortcut] = []
        while queue:
            arc, _ = queue.pop()
            ops.add("queue_pop")
            u, v = arc
            old_weight = index.weight(u, v)
            if not math.isinf(old_weight):
                for (a, b), (p, q) in _partners(index, arc):
                    ops.add("scp_plus_inspect")
                    candidate = old_weight + index.weight(a, b)
                    if not math.isinf(candidate) and index.weight(p, q) == candidate:
                        sup = index.support(p, q) - 1
                        index.set_support(p, q, sup)
                        if sup == 0:
                            queue.push((p, q), _priority(index, (p, q)))
                            ops.add("queue_push")
            new_weight = index.recompute(u, v, ops)
            if new_weight != old_weight:
                changed.append((arc, old_weight, new_weight))
        if sp.active:
            trace_call(sp, len(updates), len(changed), ops, ops_before)
    return changed


def reference_directed_dch_decrease(
    index: ShortcutGraph,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> List[ChangedShortcut]:
    """DCH- over directed shortcuts; returns the changed arcs."""
    _validate_batch(index, updates, "decrease")
    with span(names.SPAN_DIRECTED_DCH_DECREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        queue: AddressableHeap[Shortcut] = AddressableHeap()
        original: dict = {}

        for (u, v), w in updates:
            ops.add("delta_inspect")
            old_arc = index.edge_weight(u, v)
            index.set_edge_weight(u, v, w)
            current = index.weight(u, v)
            if w < current:
                original.setdefault((u, v), current)
                index.set_weight(u, v, w)
                index.set_support(u, v, 1)
                if (u, v) not in queue:
                    queue.push((u, v), _priority(index, (u, v)))
                    ops.add("queue_push")
            elif w == current and w < old_arc and not math.isinf(w):
                index.set_support(u, v, index.support(u, v) + 1)

        while queue:
            arc, _ = queue.pop()
            ops.add("queue_pop")
            u, v = arc
            weight_e = index.weight(u, v)
            if math.isinf(weight_e):
                continue
            for (a, b), (p, q) in _partners(index, arc):
                ops.add("scp_plus_inspect")
                if (a, b) in queue:
                    continue  # the other leg's pop evaluates this candidate
                candidate = weight_e + index.weight(a, b)
                current = index.weight(p, q)
                if candidate < current:
                    original.setdefault((p, q), current)
                    index.set_weight(p, q, candidate)
                    index.set_support(p, q, 1)
                    if (p, q) not in queue:
                        queue.push((p, q), _priority(index, (p, q)))
                        ops.add("queue_push")
                elif candidate == current and not math.isinf(candidate):
                    index.set_support(p, q, index.support(p, q) + 1)

        changed = [
            (arc, old, index.weight(*arc))
            for arc, old in original.items()
            if index.weight(*arc) != old
        ]
        if sp.active:
            trace_call(sp, len(updates), len(changed), ops, ops_before)
    return changed
