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

Slot-native queue
-----------------
Both run on the arc ids ``d * slots + s`` of the flat store
(:mod:`repro.directed.ch`) as :mod:`repro.ch.dch` runs on slots: one
``heapq`` of ``(2 * prio[s] + d, arc id)`` (so ``l -> h`` pops just
before ``h -> l``) and a per-call ``bytearray`` of queue flags.  A pop
on ``<l, h>`` walks the ``nbr+(l)`` row: the leg through ``w`` is slot
``ptr[l] + k`` in the other direction, and the partner ``slot[h][w]``
keeps the popped direction until the walk passes ``h`` (the row is rank
sorted).  The loops stay apart from the undirected ones, whose every pop
a direction branch would cost.  ``tests/test_directed_dch_slots.py``
holds them bit-equal to ``tests/reference_directed_dch.py``.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.directed.ch import TO, Arc, DirectedShortcutGraph
from repro.errors import UpdateError
from repro.obs import names
from repro.obs.trace import span
from repro.utils.counters import OpCounter, resolve_counter

__all__ = ["directed_dch_increase", "directed_dch_decrease"]

#: ((tail, head), new_weight) — a directed weight update.
ArcUpdate = Tuple[Arc, float]

#: A changed directed shortcut with old and new weight.
ChangedArc = Tuple[Arc, float, float]

_INF = math.inf


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


def trace_directed_call(sp, delta: int, changed_count: int, ops, ops_before) -> None:
    """Attach batch size, |C| and per-call op counts to a directed span.

    Only called when a sink is attached; the directed variants trace the
    outer call only (no per-phase spans, no AFF/DIFF currencies — the
    change-metrics helpers are defined for the undirected index).
    """
    call_ops = ops.since(ops_before)
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
        st = index.structure
        slot, up, ptr = st.slot, st.up, st.ptr
        low, high, prio = st.low_view, st.high_view, st.prio_view
        wv, gv, supv = index.slot_views()
        m = len(low)
        queue: List[Tuple[int, int]] = []
        queued = bytearray(2 * m)

        for (u, v), w in updates:
            ops.add("delta_inspect")
            k = index.arc_id(u, v)
            old_arc = gv[k]
            if w > old_arc and old_arc != _INF and old_arc == wv[k]:
                sup = supv[k] - 1
                supv[k] = sup
                if sup == 0:
                    if not queued[k]:
                        queued[k] = 1
                        heappush(queue, (2 * prio[k % m] + k // m, k))
                    ops.add("queue_push")
            gv[k] = w

        changed: List[ChangedArc] = []
        while queue:
            k = heappop(queue)[1]
            queued[k] = 0
            ops.add("queue_pop")
            d, s = divmod(k, m)
            x, y = low[s], high[s]
            old_weight = wv[k]
            # An infinite weight supports nothing.
            if old_weight != _INF:
                row = up[x]
                if len(row) > 1:
                    ops.add("scp_plus_inspect", len(row) - 1)
                slot_y = slot[y]
                a, b = (1 - d) * m + ptr[x], (1 - d) * m + ptr[x + 1]
                partner_d = d
                for w_mid, leg_weight in zip(row, wv[a:b].tolist()):
                    if w_mid == y:
                        partner_d = 1 - d  # past y, w is the low end
                        continue
                    candidate = old_weight + leg_weight
                    if candidate == _INF:
                        continue
                    p_s = slot_y[w_mid]
                    partner = partner_d * m + p_s
                    if wv[partner] == candidate:
                        sup = supv[partner] - 1
                        supv[partner] = sup
                        if sup == 0:
                            if not queued[partner]:
                                queued[partner] = 1
                                heappush(queue, (2 * prio[p_s] + partner_d, partner))
                            ops.add("queue_push")
            new_weight = index.recompute_id(k, counter)
            if new_weight != old_weight:
                changed.append(((x, y) if d == TO else (y, x), old_weight, new_weight))
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
        st = index.structure
        slot, up, ptr = st.slot, st.up, st.ptr
        low, high, prio = st.low_view, st.high_view, st.prio_view
        wv, gv, supv = index.slot_views()
        m = len(low)
        queue: List[Tuple[int, int]] = []
        queued = bytearray(2 * m)
        original: Dict[int, float] = {}  # arc id -> pre-batch weight

        for (u, v), w in updates:
            ops.add("delta_inspect")
            k = index.arc_id(u, v)
            old_arc = gv[k]
            gv[k] = w
            current = wv[k]
            if w < current:
                original.setdefault(k, current)
                wv[k] = w
                supv[k] = 1
                if not queued[k]:
                    queued[k] = 1
                    heappush(queue, (2 * prio[k % m] + k // m, k))
                    ops.add("queue_push")
            elif w == current and w < old_arc and w != _INF:
                supv[k] += 1

        # A popped weight is finite: only a smaller value is ever queued.
        while queue:
            k = heappop(queue)[1]
            queued[k] = 0
            ops.add("queue_pop")
            d, s = divmod(k, m)
            x, y = low[s], high[s]
            weight_e = wv[k]
            row = up[x]
            if len(row) > 1:
                ops.add("scp_plus_inspect", len(row) - 1)
            slot_y = slot[y]
            a, b = (1 - d) * m + ptr[x], (1 - d) * m + ptr[x + 1]
            partner_d = d
            for w_mid, leg_weight, leg_queued in zip(
                row, wv[a:b].tolist(), queued[a:b]
            ):
                if w_mid == y:
                    partner_d = 1 - d  # past y, w is the low end
                    continue
                if leg_queued:
                    continue  # the other leg's pop evaluates this candidate
                p_s = slot_y[w_mid]
                partner = partner_d * m + p_s
                candidate = weight_e + leg_weight
                current = wv[partner]
                if candidate < current:
                    original.setdefault(partner, current)
                    wv[partner] = candidate
                    supv[partner] = 1
                    if not queued[partner]:
                        queued[partner] = 1
                        heappush(queue, (2 * prio[p_s] + partner_d, partner))
                        ops.add("queue_push")
                elif candidate == current and candidate != _INF:
                    supv[partner] += 1

        changed = []
        for k, old in original.items():
            if wv[k] != old:
                x, y = low[k % m], high[k % m]
                changed.append(((x, y) if k < m else (y, x), old, wv[k]))
        if sp.active:
            trace_directed_call(sp, len(updates), len(changed), ops, ops_before)
    return changed
