"""DCH for directed networks: per-direction incremental maintenance.

Algorithms 2 and 3 carry over with one twist: each skeleton shortcut
holds two directed weights, and the propagation step must dispatch a
changed arc to the right directed candidates.  For a popped directed
shortcut whose skeleton is ``{l, h}`` (``l`` the lower-ranked endpoint)
and each skeleton upward neighbor ``w`` of ``l``:

* the arc ``l -> h`` participates in the candidate
  ``phi(w -> l) + phi(l -> h)`` of partner arc ``w -> h``;
* the arc ``h -> l`` participates in the candidate
  ``phi(h -> l) + phi(l -> w)`` of partner arc ``h -> w``.

Priorities, supports and the decrease-pass dedup rule (skip a pair when
its other leg is still queued) all work exactly as in the undirected
implementation, applied per directed shortcut.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Set, Tuple

from repro.directed.ch import Arc, DirectedShortcutGraph
from repro.errors import UpdateError
from repro.obs import names
from repro.obs.trace import span
from repro.utils.counters import OpCounter, resolve_counter
from repro.utils.heap import AddressableHeap

__all__ = ["directed_dch_increase", "directed_dch_decrease"]

#: ((tail, head), new_weight) — a directed weight update.
ArcUpdate = Tuple[Arc, float]

#: A changed directed shortcut with old and new weight.
ChangedArc = Tuple[Arc, float, float]


def _validate(
    index: DirectedShortcutGraph, updates: Sequence[ArcUpdate], direction: str
) -> None:
    seen: Set[Arc] = set()
    for (u, v), w in updates:
        if not index.is_arc(u, v):
            raise UpdateError(f"({u} -> {v}) is not an arc of G")
        if (u, v) in seen:
            raise UpdateError(f"arc ({u} -> {v}) appears twice in one batch")
        seen.add((u, v))
        if w < 0 or math.isnan(w):
            raise UpdateError(f"invalid weight {w} for arc ({u} -> {v})")
        old = index.arc_weight(u, v)
        if direction == "increase" and w < old:
            raise UpdateError(f"increase got a decrease on ({u} -> {v})")
        if direction == "decrease" and w > old:
            raise UpdateError(f"decrease got an increase on ({u} -> {v})")


def _priority(index: DirectedShortcutGraph, arc: Arc) -> Tuple[int, int, int]:
    rank = index.ordering.rank
    u, v = arc
    return (min(rank[u], rank[v]), max(rank[u], rank[v]), rank[u])


def _partners(index: DirectedShortcutGraph, arc: Arc):
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
            if w_mid != high and w_mid in index._w[high]:
                yield (w_mid, low), (w_mid, high)
    else:
        # arc = h -> l: candidate phi(h -> l) + phi(l -> w) for (h -> w).
        high = u
        for w_mid in index.upward(low):
            if w_mid != high and w_mid in index._w[high]:
                yield (low, w_mid), (high, w_mid)


def trace_directed_call(sp, delta: int, changed_count: int, ops, ops_before) -> None:
    """Attach batch size, |C| and per-call op counts to a directed span.

    Only called when a sink is attached; the directed variants trace the
    outer call only (no per-phase spans, no AFF/DIFF currencies — the
    change-metrics helpers are defined for the undirected index).
    """
    current = ops.as_dict()
    call_ops = {
        channel: count - ops_before.get(channel, 0)
        for channel, count in current.items()
        if count - ops_before.get(channel, 0)
    }
    sp.set(
        delta=delta,
        changed=changed_count,
        ops=call_ops,
        ops_total=sum(call_ops.values()),
    )


def directed_dch_increase(
    index: DirectedShortcutGraph,
    updates: Sequence[ArcUpdate],
    counter: Optional[OpCounter] = None,
) -> List[ChangedArc]:
    """DCH+ over directed shortcuts; returns the changed arcs."""
    _validate(index, updates, "increase")
    with span(names.SPAN_DIRECTED_DCH_INCREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        queue: AddressableHeap[Arc] = AddressableHeap()

        for (u, v), w in updates:
            ops.add("delta_inspect")
            old_arc = index.arc_weight(u, v)
            if w > old_arc and not math.isinf(old_arc) and (
                old_arc == index.weight(u, v)
            ):
                sup = index.support(u, v) - 1
                index.set_support(u, v, sup)
                if sup == 0:
                    queue.push((u, v), _priority(index, (u, v)))
                    ops.add("queue_push")
            index.set_arc_weight(u, v, w)

        changed: List[ChangedArc] = []
        while queue:
            arc, _ = queue.pop()
            ops.add("queue_pop")
            u, v = arc
            old_weight = index.weight(u, v)
            if not math.isinf(old_weight):
                for (a, b), (p, q) in _partners(index, arc):
                    ops.add("scp_plus_inspect")
                    candidate = old_weight + index._w[a][b]
                    if not math.isinf(candidate) and index._w[p][q] == candidate:
                        sup = index.support(p, q) - 1
                        index.set_support(p, q, sup)
                        if sup == 0:
                            queue.push((p, q), _priority(index, (p, q)))
                            ops.add("queue_push")
            new_weight = index.recompute_arc(u, v, ops)
            if new_weight != old_weight:
                changed.append((arc, old_weight, new_weight))
        if sp.active:
            trace_directed_call(sp, len(updates), len(changed), ops, ops_before)
    return changed


def directed_dch_decrease(
    index: DirectedShortcutGraph,
    updates: Sequence[ArcUpdate],
    counter: Optional[OpCounter] = None,
) -> List[ChangedArc]:
    """DCH- over directed shortcuts; returns the changed arcs."""
    _validate(index, updates, "decrease")
    with span(names.SPAN_DIRECTED_DCH_DECREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        queue: AddressableHeap[Arc] = AddressableHeap()
        original: dict = {}

        for (u, v), w in updates:
            ops.add("delta_inspect")
            old_arc = index.arc_weight(u, v)
            index.set_arc_weight(u, v, w)
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
                candidate = weight_e + index._w[a][b]
                current = index._w[p][q]
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
            trace_directed_call(sp, len(updates), len(changed), ops, ops_before)
    return changed
