"""DCH — the state-of-the-art incremental CH maintenance [39].

``dch_increase`` is Algorithm 2 (DCH+) and ``dch_decrease`` is
Algorithm 3 (DCH-) of the paper.  Section 4.2 proves:

* DCH+ is *subbounded relative to* CHIndexing: it runs in
  ``O(||AFF|| log ||AFF||)`` time, where ``||AFF||`` is the time
  CHIndexing spends on the affected shortcuts;
* DCH- is additionally *bounded relative to* CHIndexing: it runs in
  ``O(|DIFF| log |DIFF|)`` time.

Both functions return the set of shortcuts whose weight changed (the
paper's set ``C``), which IncH2H consumes directly (Algorithms 4-5).

Slot-native queue
-----------------
Both algorithms run on the slots of the flat store
(:mod:`repro.ch.shortcut_graph`).  The queue ``Q`` is one ``heapq`` of
``(priority, slot)``, the priority ``rank(x) * n + rank(y)`` of
``<x, y>`` (``x`` the lower end) read from the structure's shared
``prio`` array, so pops come in the paper's order: lowest lower end
first.  Queue membership is a per-call ``bytearray`` indexed by slot.

The upward pairs ``scp+(<x, y>)`` are the ``nbr+(x)`` row itself: the
CH is weight independent and ``nbr+(x)`` is a clique (the elimination
fill), so for every ``w`` in it other than ``y`` the leg ``<x, w>`` is
slot ``ptr[x] + k`` and the partner ``<w, y>`` exists
(:meth:`ShortcutGraph.validate` checks both facts).  A pop reads the
legs' weights and queue flags as one row slice up front: no partner
``<w, y>`` is a leg ``<x, w'>`` (neither ``w`` nor ``y`` is ``x``), so
nothing the walk writes can change them.  Line 13 of DCH+ stays the
scalar Equation (<>) of :meth:`ShortcutGraph.recompute_slot`.
``tests/reference_dch.py`` keeps the key-based form and
``tests/test_dch_slots.py`` holds this one bit-equal to it.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import UpdateError
from repro.ch.shortcut_graph import Shortcut, ShortcutGraph
from repro.graph.graph import WeightUpdate
from repro.obs import names
from repro.obs.trace import span
from repro.utils.counters import OpCounter, resolve_counter

__all__ = ["dch_increase", "dch_decrease", "ChangedShortcut"]

#: A changed shortcut with its weight before and after the update.
ChangedShortcut = Tuple[Shortcut, float, float]

_INF = math.inf


def _validate_batch(
    index: ShortcutGraph, updates: Sequence[WeightUpdate], direction: str
) -> None:
    """Check the batch is well-formed and monotone in *direction*."""
    seen: Set[Shortcut] = set()
    for (u, v), w in updates:
        key = index.key(u, v)
        if not index.is_graph_edge(u, v):
            raise UpdateError(f"({u}, {v}) is not an edge of G")
        if key in seen:
            raise UpdateError(f"edge ({u}, {v}) appears twice in one batch")
        seen.add(key)
        if w < 0 or math.isnan(w):
            raise UpdateError(f"invalid weight {w} for edge ({u}, {v})")
        old = index.edge_weight(u, v)
        if direction == "increase" and w < old:
            raise UpdateError(
                f"dch_increase got a decrease on ({u}, {v}): {old} -> {w}"
            )
        if direction == "decrease" and w > old:
            raise UpdateError(
                f"dch_decrease got an increase on ({u}, {v}): {old} -> {w}"
            )


def _trace_boundedness(sp, index, delta, changed, ops, ops_before) -> None:
    """Attach the boundedness currencies and per-call op counts to *sp*.

    Only runs when a sink is attached (``sp.active``); the currencies
    require scanning ``scp±`` lists, which must not burden untraced
    runs.  Reads only — the differential test asserts tracing leaves
    the index bit-identical.
    """
    from repro.core.changed import ch_change_metrics  # circular at module level

    metrics = ch_change_metrics(index, delta, changed)
    call_ops = ops.since(ops_before)
    sp.set(
        delta=delta,
        changed=len(changed),
        aff_norm=metrics.aff_norm,
        diff=metrics.diff,
        ops=call_ops,
        ops_total=sum(call_ops.values()),
    )


def dch_increase(
    index: ShortcutGraph,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> List[ChangedShortcut]:
    """DCH+ (Algorithm 2): apply weight *increases* to the CH index.

    Parameters
    ----------
    index:
        The CH index; mutated in place (weights, supports, witnesses and
        its stored ``phi(e, G)`` copies).
    updates:
        ``((u, v), new_weight)`` pairs; every new weight must be >= the
        current ``phi(e, G)``.
    counter:
        Optional instrumentation; channels: ``queue_push``, ``queue_pop``,
        ``scp_plus_inspect``, ``scp_minus_inspect``, ``delta_inspect``.

    Returns
    -------
    list of (shortcut, old_weight, new_weight)
        The paper's set ``C``: shortcuts whose weight changed, in the
        order they were finalized (ascending rank of lower endpoint).
    """
    _validate_batch(index, updates, "increase")
    with span(names.SPAN_DCH_INCREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        st = index.structure
        slot, up, ptr = st.slot, st.up, st.ptr
        low, high, prio = st.low_view, st.high_view, st.prio_view
        wv, ewv, supv, _viav = index.slot_views()
        queue: List[Tuple[int, int]] = []
        queued = bytearray(len(low))

        # Lines 2-6: consume Delta G.
        with span(names.SPAN_DCH_INCREASE_SEED, delta=len(updates)):
            for (u, v), w in updates:
                ops.add("delta_inspect")
                s = slot[u][v]
                old_edge_weight = ewv[s]
                if w > old_edge_weight and old_edge_weight != _INF and (
                    old_edge_weight == wv[s]
                ):
                    sup = supv[s] - 1
                    supv[s] = sup
                    if sup == 0:
                        if not queued[s]:
                            queued[s] = 1
                            heappush(queue, (prio[s], s))
                        ops.add("queue_push")
                ewv[s] = w

        changed: List[ChangedShortcut] = []
        # Lines 7-13: propagate, lowest lower-endpoint rank first.
        with span(names.SPAN_DCH_INCREASE_PROPAGATE) as sp_prop:
            while queue:
                s = heappop(queue)[1]
                queued[s] = 0
                ops.add("queue_pop")
                x, y = low[s], high[s]
                old_weight = wv[s]
                # Lines 9-12: the weight of <x, y> is about to increase; any
                # upward-pair partner <w, y> it currently supports loses one
                # support.  Infinite weights (deleted roads) support nothing
                # by convention, matching evaluate_equation's support counting.
                if old_weight == _INF:
                    ops.add("scp_plus_inspect", 0)
                else:
                    row = up[x]
                    ops.add("scp_plus_inspect", len(row) - 1)
                    slot_y = slot[y]
                    legs = wv[ptr[x] : ptr[x + 1]].tolist()
                    for w_mid, leg_weight in zip(row, legs):
                        if w_mid == y:
                            continue
                        candidate = old_weight + leg_weight
                        if candidate == _INF:
                            continue
                        partner = slot_y[w_mid]
                        if wv[partner] == candidate:
                            sup = supv[partner] - 1
                            supv[partner] = sup
                            if sup == 0:
                                if not queued[partner]:
                                    queued[partner] = 1
                                    heappush(queue, (prio[partner], partner))
                                ops.add("queue_push")
                # Line 13: recompute weight and support from Equation (<>).
                new_weight = index.recompute_slot(s, counter)
                if new_weight != old_weight:
                    key = (x, y) if x < y else (y, x)
                    changed.append((key, old_weight, new_weight))
            sp_prop.set(changed=len(changed))
        if sp.active:
            _trace_boundedness(sp, index, len(updates), changed, ops, ops_before)
    return changed


def dch_decrease(
    index: ShortcutGraph,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> List[ChangedShortcut]:
    """DCH- (Algorithm 3): apply weight *decreases* to the CH index.

    Mirrors :func:`dch_increase`; supports are kept exact on the fly
    (see the propagation loop).

    Returns
    -------
    list of (shortcut, old_weight, new_weight)
        Shortcuts whose weight changed, with their original (pre-batch)
        and final weights.
    """
    _validate_batch(index, updates, "decrease")
    with span(names.SPAN_DCH_DECREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        st = index.structure
        slot, up, ptr = st.slot, st.up, st.ptr
        low, high, prio = st.low_view, st.high_view, st.prio_view
        wv, ewv, supv, viav = index.slot_views()
        queue: List[Tuple[int, int]] = []
        queued = bytearray(len(low))
        original: Dict[int, float] = {}  # slot -> pre-batch weight

        # Lines 2-6: consume Delta G.  A strictly smaller edge weight either
        # relaxes the shortcut (support resets to the edge term alone) or ties
        # it (the edge term newly attains the minimum: one more support).
        with span(names.SPAN_DCH_DECREASE_SEED, delta=len(updates)):
            for (u, v), w in updates:
                ops.add("delta_inspect")
                s = slot[u][v]
                old_edge_w = ewv[s]
                ewv[s] = w
                current = wv[s]
                if w < current:
                    original.setdefault(s, current)
                    wv[s] = w
                    supv[s] = 1
                    viav[s] = -1
                    if not queued[s]:
                        queued[s] = 1
                        heappush(queue, (prio[s], s))
                        ops.add("queue_push")
                elif w == current and w < old_edge_w and w != _INF:
                    supv[s] += 1

        # Lines 7-12: propagate relaxations.  Supports are maintained exactly
        # on the fly: all weights sharing a lower endpoint are final before
        # the first of them pops, so a pair's sum is evaluated with final
        # values; when *both* members of a pair changed, the pair would be
        # evaluated from both pops with the same sum, so the earlier pop
        # (other member still queued) skips it and the later pop applies it.
        with span(names.SPAN_DCH_DECREASE_PROPAGATE):
            while queue:
                s = heappop(queue)[1]
                queued[s] = 0
                ops.add("queue_pop")
                x, y = low[s], high[s]
                weight_e = wv[s]
                row = up[x]
                ops.add("scp_plus_inspect", len(row) - 1)
                slot_y = slot[y]
                a, b = ptr[x], ptr[x + 1]
                for w_mid, leg_weight, leg_queued in zip(
                    row, wv[a:b].tolist(), queued[a:b]
                ):
                    if w_mid == y or leg_queued:
                        continue  # not a pair, or the queued leg's pop evaluates it
                    partner = slot_y[w_mid]
                    candidate = weight_e + leg_weight
                    current = wv[partner]
                    if candidate < current:
                        original.setdefault(partner, current)
                        wv[partner] = candidate
                        supv[partner] = 1
                        viav[partner] = x
                        if not queued[partner]:
                            queued[partner] = 1
                            heappush(queue, (prio[partner], partner))
                            ops.add("queue_push")
                    elif candidate == current and candidate != _INF:
                        supv[partner] += 1

        changed = []
        for s, old in original.items():
            if wv[s] != old:
                x, y = low[s], high[s]
                changed.append(((x, y) if x < y else (y, x), old, wv[s]))
        if sp.active:
            _trace_boundedness(sp, index, len(updates), changed, ops, ops_before)
    return changed
